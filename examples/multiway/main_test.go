package main

// Example runs the program and pins its whole output: every cost is
// simulated, so the figures are exact across runs.
func Example() {
	main()
	// Output:
	// Top-10 phrases by Mon+Tue+Wed popularity (3-way ISL rank join):
	//
	//  1. phrase-0008    total 2.470  (0.768 + 0.852 + 0.850)
	//  2. phrase-0001    total 2.421  (0.904 + 0.812 + 0.704)
	//  3. phrase-0007    total 2.294  (0.635 + 0.958 + 0.701)
	//  4. phrase-0009    total 2.151  (0.901 + 0.836 + 0.413)
	//  5. phrase-0024    total 2.101  (0.704 + 0.592 + 0.805)
	//  6. phrase-0036    total 2.070  (0.687 + 0.650 + 0.733)
	//  7. phrase-0004    total 2.054  (0.758 + 0.386 + 0.911)
	//  8. phrase-0000    total 2.040  (0.624 + 0.485 + 0.932)
	//  9. phrase-0023    total 2.018  (0.590 + 0.733 + 0.695)
	// 10. phrase-0002    total 1.934  (0.618 + 0.426 + 0.890)
	//
	// cost: 10.989898ms, 406032 B network, 6000 KV reads ($1.20)
	// naive scan for comparison: 12000 KV reads — ISL read 50.0% of that
}
