package main

// Example runs the program and pins its whole output: every cost is
// simulated, so the figures are exact across runs.
func Example() {
	main()
	// Output:
	// Top-3 rank join of the paper's running example (f = sum):
	//
	// hive  :  r1_7+r2_11=1.74  r1_7+r2_2=1.73  r1_8+r2_11=1.62
	//         time=3.000300174s   net=101623  B kvReads=76     ($0.02)
	// pig   :  r1_7+r2_11=1.74  r1_7+r2_2=1.73  r1_8+r2_11=1.62
	//         time=4.50002302s    net=3563    B kvReads=102    ($0.03)
	// ijlmr :  r1_7+r2_11=1.74  r1_7+r2_2=1.73  r1_8+r2_11=1.62
	//         time=1.500004869s   net=212     B kvReads=22     ($0.01)
	// isl   :  r1_7+r2_11=1.74  r1_7+r2_2=1.73  r1_8+r2_11=1.62
	//         time=304.852µs      net=1166    B kvReads=22     ($0.01)
	// bfhm  :  r1_7+r2_11=1.74  r1_7+r2_2=1.73  r1_8+r2_11=1.62
	//         time=51.713658ms    net=7363    B kvReads=40     ($0.01)
	// drjn  :  r1_7+r2_11=1.74  r1_7+r2_2=1.73  r1_8+r2_11=1.62
	//         time=27.05317536s   net=25612   B kvReads=574    ($0.12)
	//
	// Expected top-3: r1_7+r2_11=1.74, r1_7+r2_2=1.73, r1_8+r2_11=1.62
}
