package main

import (
	"context"
	_ "embed"
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// defaultSeed is the seed the oracle was recorded on; it is also
// hybridmem's default.
const defaultSeed = 1

// oracleJSON holds the SHA-256 of every output the benchmark checks,
// recorded on the default seed by --record-oracle: each emulate cell's
// EncodeResult bytes, and serve-replay's recordings, exact answers and
// the answers to every request of its mix.
//
//go:embed oracle.json
var oracleJSON []byte

func oracleDigests() map[string]string {
	m := map[string]string{}
	if err := json.Unmarshal(oracleJSON, &m); err != nil {
		panic(fmt.Sprintf("perfbench: embedded oracle.json: %v", err)) // a bad build, not bad input
	}
	return m
}

// recordOracle sets every workload up once on the default seed and
// writes the digests of every checked output to path.
func recordOracle(path string, stderr io.Writer) error {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	e := newEnv(config{seed: defaultSeed}, stderr)
	e.oracle = nil
	for _, name := range workloadNames() {
		w := workloads[name](defaultSeed)
		err := w.setup(context.Background(), e)
		w.close()
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
	}
	out, err := json.MarshalIndent(e.refs, "", "  ")
	if err != nil {
		return err
	}
	fmt.Fprintf(stderr, "perfbench: recorded %d digests\n", len(e.refs))
	return os.WriteFile(path, append(out, '\n'), 0o644)
}
