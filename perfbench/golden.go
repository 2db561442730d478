package main

import (
	"context"
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
)

// seedClasses is the number of distinct input sets of table-pipeline: a
// workload seed selects class seed mod seedClasses. Each class's output
// digests were recorded from the code the benchmark was defined on, so
// every run is checked against known-good figures.
const seedClasses = 8

// goldenJSON maps workload -> seed class -> unit -> digest.
//
//go:embed golden.json
var goldenJSON []byte

type goldenDB map[string]map[string]map[string]string

func loadGolden() goldenDB {
	var db goldenDB
	if err := json.Unmarshal(goldenJSON, &db); err != nil {
		return goldenDB{}
	}
	return db
}

// goldenFor returns the recorded digests of one workload's input set: a
// seed class of table-pipeline, or synth-sweep's "corpus".
func goldenFor(workload, set string) map[string]string {
	return loadGolden()[workload][set]
}

// recordGolden computes the digest of every table cell of every seed class
// and of every synth-sweep design, and writes them to path. Run it only on
// code whose outputs are known good:
//
//	go run . -record-golden golden.json
func recordGolden(path string) error {
	ctx := context.Background()
	workers := runtime.NumCPU()
	db := goldenDB{"table-pipeline": {}, "synth-sweep": {}}
	for class := uint64(0); class < seedClasses; class++ {
		tin, err := newTableInputs(class, workers)
		if err != nil {
			return err
		}
		cells := map[string]string{}
		for _, c := range tin.Cells {
			r := runCell(ctx, tin, c, workers, nil, 0)
			if r.Err != nil {
				return r.Err
			}
			cells[c.key()] = cellDigest(r)
		}
		db["table-pipeline"][fmt.Sprint(class)] = cells
		fmt.Fprintf(os.Stderr, "recorded table-pipeline seed class %d\n", class)
	}
	sin, err := newSynthInputs(0, workers, nil)
	if err != nil {
		return err
	}
	designs := map[string]string{}
	for _, d := range sin.Designs {
		r := runDesign(ctx, sin, d, nil, 0)
		if r.Err != nil {
			return r.Err
		}
		designs[d.Name] = designDigest(r)
	}
	db["synth-sweep"]["corpus"] = designs
	b, err := json.MarshalIndent(db, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
