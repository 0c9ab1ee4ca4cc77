package sketch_test

import (
	"fmt"

	"repro/internal/sketch"
)

// ExampleCountMin mirrors the paper's Figure 3: count events in a stream and
// react to updated estimates.
func ExampleCountMin() {
	cm := sketch.NewCountMinWH(20, 20) // the Figure-3 dimensions
	for i := 0; i < 100; i++ {
		cm.Add("popular", 1)
	}
	cm.Add("rare", 1)
	fmt.Println("popular ≈", cm.Estimate("popular"))
	fmt.Println("rare    ≈", cm.Estimate("rare"))
	// Output:
	// popular ≈ 100
	// rare    ≈ 1
}
