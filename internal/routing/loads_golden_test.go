package routing

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"

	"wormmesh/internal/fault"
	"wormmesh/internal/topology"
)

// loadsDigest hashes every field of a LoadMap the analytic model reads
// (FNV-1a over the exact float64 bit patterns), so any change to the
// walk's arithmetic or its order shows up as a different digest.
func loadsDigest(lm *LoadMap) string {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v float64) {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		h.Write(buf[:])
	}
	for _, v := range lm.Loads {
		put(v)
	}
	for _, v := range lm.PairBottlenecks {
		put(v)
	}
	put(lm.MeanHops)
	put(lm.RingHops)
	put(lm.LostMass)
	put(float64(lm.Channels))
	return fmt.Sprintf("%016x", h.Sum64())
}

// loadsGoldenDigests pins RouteLoads' output bit for bit on 10×10
// meshes: the canned center-block pattern and three random patterns
// from fault.Generate (boundary-touching regions allowed, so f-chains
// are covered as well as closed f-rings). Keyed "pattern/algorithm".
// The walk models the fortification, which the three algorithms
// share, so their digests coincide per pattern. A faster walk must
// leave every digest unchanged.
var loadsGoldenDigests = map[string]string{
	"center-block/Nbc":          "cc1c2b91508299cc",
	"center-block/Duato-Nbc":    "cc1c2b91508299cc",
	"center-block/PHop":         "cc1c2b91508299cc",
	"random-5-seed1/Nbc":        "daed308af1c8638c",
	"random-5-seed1/Duato-Nbc":  "daed308af1c8638c",
	"random-5-seed1/PHop":       "daed308af1c8638c",
	"random-5-seed2/Nbc":        "93998505e83cf7d2",
	"random-5-seed2/Duato-Nbc":  "93998505e83cf7d2",
	"random-5-seed2/PHop":       "93998505e83cf7d2",
	"random-10-seed3/Nbc":       "473c881542a914dd",
	"random-10-seed3/Duato-Nbc": "473c881542a914dd",
	"random-10-seed3/PHop":      "473c881542a914dd",
}

func TestRouteLoadsGolden(t *testing.T) {
	m := topology.New(10, 10)
	patterns := map[string]*fault.Model{}
	ids, err := fault.NamedPattern("center-block", m)
	if err != nil {
		t.Fatal(err)
	}
	if patterns["center-block"], err = fault.New(m, ids); err != nil {
		t.Fatal(err)
	}
	for _, g := range []struct {
		faults int
		seed   int64
	}{{5, 1}, {5, 2}, {10, 3}} {
		f, err := fault.Generate(m, g.faults, rand.New(rand.NewSource(g.seed)), fault.Options{})
		if err != nil {
			t.Fatalf("Generate(%d, seed %d): %v", g.faults, g.seed, err)
		}
		patterns[fmt.Sprintf("random-%d-seed%d", g.faults, g.seed)] = f
	}
	for pname, f := range patterns {
		for _, alg := range []string{"Nbc", "Duato-Nbc", "PHop"} {
			key := pname + "/" + alg
			got := loadsDigest(mustLoads(t, alg, f, 24))
			if want := loadsGoldenDigests[key]; got != want {
				t.Errorf("%s: RouteLoads digest %s, want %s", key, got, want)
			}
		}
	}
}
