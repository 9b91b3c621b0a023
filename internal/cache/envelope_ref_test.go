package cache

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"svard/internal/sim"
)

// The reference envelope: the wire format as a struct that encoding/json
// marshals, opened by unmarshalling it reflectively and re-marshalling
// the decoded result to check its sum. It is what Seal and OpenEnvelope
// did before the frame in envelope.go stated the format (18 allocations
// per open), and it is obviously right, so Seal is held to its bytes and
// OpenEnvelope to its verdicts (TestSealMatchesReference,
// FuzzResultPlan). Do not optimise it.

type envelope struct {
	Schema string     `json:"schema"`
	Key    string     `json:"key"`
	Sum    string     `json:"sum"` // resultSum over the canonical Result JSON
	Result sim.Result `json:"result"`
}

// resultSum is the hex SHA-256 over the result's canonical JSON bytes.
func resultSum(res sim.Result) (string, error) {
	b, err := json.Marshal(res)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}

func referenceSeal(key string, res sim.Result) ([]byte, error) {
	sum, err := resultSum(res)
	if err != nil {
		return nil, err
	}
	return json.Marshal(envelope{Schema: SchemaVersion, Key: key, Sum: sum, Result: res})
}

func referenceOpen(key string, b []byte) (sim.Result, error) {
	var env envelope
	if err := json.Unmarshal(b, &env); err != nil {
		return sim.Result{}, fmt.Errorf("cache: entry %s: %w", key, err)
	}
	if env.Schema != SchemaVersion || env.Key != key {
		return sim.Result{}, fmt.Errorf("cache: entry %s: schema %q key %q mismatch", key, env.Schema, env.Key)
	}
	sum, err := resultSum(env.Result)
	if err != nil || env.Sum != sum {
		return sim.Result{}, fmt.Errorf("cache: entry %s: content sum %q, want %q", key, env.Sum, sum)
	}
	return env.Result, nil
}
