// Quickstart: build an IQ-tree over a small uniform data set, run a
// nearest-neighbor, a k-nearest-neighbor and a range query, and inspect
// the simulated query cost the paper's evaluation is based on.
package main

import (
	"fmt"
	"log"

	"repro"
)

func main() {
	// A 20,000-point, 8-dimensional uniform database plus 3 held-out
	// queries following the same distribution.
	all := repro.GenUniform(1, 20003, 8)
	db, queries := repro.SplitDataset(all, 3)

	sto := repro.NewStore(repro.DefaultStoreConfig())
	tree, err := repro.BuildIQTree(sto, db, repro.DefaultIQTreeOptions())
	if err != nil {
		log.Fatal(err)
	}

	st := tree.Stats()
	fmt.Printf("IQ-tree over %d points: %d quantized pages, bits histogram %v\n",
		st.Points, st.Pages, st.BitsHistogram)
	fmt.Printf("estimated fractal dimension D_F = %.2f, model-predicted cost %.4fs/query\n\n",
		st.FractalDim, st.PredictedCost)

	for i, q := range queries {
		// Each query gets its own store session; the session accumulates
		// the simulated seeks, block transfers and CPU time.
		s := sto.NewSession()
		res, err := tree.KNN(s, q, 1)
		if err != nil {
			log.Fatal(err)
		}
		if len(res) == 0 {
			log.Fatal("no neighbor found")
		}
		nn := res[0]
		fmt.Printf("query %d: NN id=%d dist=%.4f   (simulated %.4fs: %v)\n",
			i, nn.ID, nn.Dist, s.Time(), s.Stats)

		s = sto.NewSession()
		top, err := tree.KNN(s, q, 5)
		if err != nil {
			log.Fatal(err)
		}
		for rank, nb := range top {
			fmt.Printf("   top-%d: id=%-6d dist=%.4f\n", rank+1, nb.ID, nb.Dist)
		}

		s = sto.NewSession()
		inRange, err := tree.RangeSearch(s, q, nn.Dist*1.5)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("   %d points within eps=%.4f (simulated %.4fs)\n\n",
			len(inRange), nn.Dist*1.5, s.Time())
	}
}
