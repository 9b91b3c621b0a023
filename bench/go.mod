module svard/bench

go 1.24

require svard v0.0.0

replace svard => ../
