package main

// Example runs the program and pins its whole output: every cost is
// simulated, so the figures are exact across runs.
func Example() {
	main()
	// Output:
	// Most popular phrases across Monday+Tuesday (3000 phrases/day)
	//
	// --- isl  (time 352.755µs, 14228 B network, 200 KV reads, $0.04)
	//  1. phrase-0001    combined popularity 1.336
	//  2. phrase-0002    combined popularity 1.315
	//  3. phrase-0003    combined popularity 1.270
	//  4. phrase-0005    combined popularity 1.251
	//  5. phrase-0000    combined popularity 1.222
	//  6. phrase-0004    combined popularity 1.162
	//  7. phrase-0011    combined popularity 1.148
	//  8. phrase-0006    combined popularity 1.112
	//  9. phrase-0013    combined popularity 1.092
	// 10. phrase-0015    combined popularity 1.030
	//
	// --- bfhm  (time 136.486073ms, 32395 B network, 311 KV reads, $0.07)
	//  1. phrase-0001    combined popularity 1.336
	//  2. phrase-0002    combined popularity 1.315
	//  3. phrase-0003    combined popularity 1.270
	//  4. phrase-0005    combined popularity 1.251
	//  5. phrase-0000    combined popularity 1.222
	//  6. phrase-0004    combined popularity 1.162
	//  7. phrase-0011    combined popularity 1.148
	//  8. phrase-0006    combined popularity 1.112
	//  9. phrase-0013    combined popularity 1.092
	// 10. phrase-0015    combined popularity 1.030
	//
	// Breaking news: 'phrase-2999' spikes in the evening logs...
	// New #1: phrase-2999 at 1.990 (BFHM, 277 KV reads)
}
