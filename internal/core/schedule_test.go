package core

import (
	"bytes"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/store"
	"repro/internal/vec"
)

// filesBuiltAt builds pts with GOMAXPROCS set to procs, applies mutate
// (when set) at the same setting, and returns the bytes of the tree's
// meta, directory, quantized and exact files. GOMAXPROCS is restored.
func filesBuiltAt(t *testing.T, procs int, cfg store.Config, pts []vec.Point, opt Options, mutate func(*Tree)) map[string][]byte {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	tr, err := Build(store.NewSim(cfg), pts, opt)
	if err != nil {
		t.Fatal(err)
	}
	if mutate != nil {
		mutate(tr)
	}
	files := map[string][]byte{}
	for _, name := range []string{MetaFileName, DirFileName, genName(QFileName, tr.load().gen.n), genName(EFileName, tr.load().gen.n)} {
		files[name] = rawFileBytes(t, tr, name)
	}
	return files
}

// TestBuildIndependentOfSchedule builds each input on one goroutine and
// on four: planning forks its splits and loops across GOMAXPROCS
// goroutines, and every file it writes must come out byte-identical.
func TestBuildIndependentOfSchedule(t *testing.T) {
	cfg := store.DefaultConfig()
	r := rand.New(rand.NewSource(28))
	seven := randPoints(r, 7, 8)
	dups := make([]vec.Point, 20000)
	for i := range dups {
		dups[i] = seven[i%len(seven)]
	}
	cap1 := geometry{dim: 9, blockSize: cfg.BlockSize}.pageCapacity(1) // WEATHER is 9-d
	fixed, exact := DefaultOptions(), DefaultOptions()
	fixed.FixedBits = 4
	exact.Quantize = false

	base, extra := randPoints(r, 6000, 8), randPoints(r, 600, 8)
	reoptimize := func(tr *Tree) {
		applyInsertDeleteMix(t, []*Tree{tr}, base, extra)
		if err := tr.Reoptimize(); err != nil {
			t.Fatal(err)
		}
		if tr.load().gen.n == 0 {
			t.Fatal("Reoptimize did not start a new generation")
		}
	}

	cases := []struct {
		name   string
		cfg    store.Config
		pts    []vec.Point
		opt    Options
		mutate func(*Tree)
	}{
		{"uniform-16d", cfg, dataset.GenUniform(1, 20000, 16), DefaultOptions(), nil},
		{"cad", cfg, dataset.GenCAD(2, 20000), DefaultOptions(), nil},
		{"weather", cfg, dataset.GenWeather(3, 20000), DefaultOptions(), nil},
		{"duplicates", cfg, dups, DefaultOptions(), nil},
		{"n=cap1", cfg, dataset.GenWeather(4, cap1), DefaultOptions(), nil},
		{"n=cap1+1", cfg, dataset.GenWeather(4, cap1+1), DefaultOptions(), nil},
		{"fixed-bits", smallConfig(), randPoints(r, 6000, 8), fixed, nil},
		{"no-quantize", smallConfig(), randPoints(r, 6000, 8), exact, nil},
		{"reoptimize", smallConfig(), base, DefaultOptions(), reoptimize},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			one := filesBuiltAt(t, 1, c.cfg, c.pts, c.opt, c.mutate)
			four := filesBuiltAt(t, 4, c.cfg, c.pts, c.opt, c.mutate)
			for name, want := range one {
				if len(want) == 0 && !strings.HasPrefix(name, EFileName) {
					t.Fatalf("%s is empty", name) // only a tree of 32-bit pages has no exact pages
				}
				if !bytes.Equal(four[name], want) {
					t.Errorf("%s differs between GOMAXPROCS 1 and 4", name)
				}
			}
		})
	}
}
