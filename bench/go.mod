// The benchmark is its own module so that nothing in the repo's build
// (go build ./... at the root) depends on it and a change to the
// program cannot silently change the benchmark's build. The module path
// sits under repro/ so the loader may import repro/internal/tpch.
module repro/bench

go 1.24

require repro v0.0.0

replace repro => ../
