package main

// Example runs the program and pins its whole output: every cost is
// simulated, so the figures are exact across runs.
func Example() {
	main()
	// Output:
	// loaded posting list database    :  4000 entries (432000 B on disk)
	// loaded posting list bloomfilter :   900 entries (102600 B on disk)
	//
	// Top-10 documents for "database bloomfilter" (20000-doc corpus):
	//
	//  1. doc004722  relevance 1.9621  (0.9807 + 0.9814)
	//  2. doc008009  relevance 1.7662  (0.8479 + 0.9183)
	//  3. doc008335  relevance 1.6862  (0.9553 + 0.7309)
	//  4. doc018871  relevance 1.6088  (0.7344 + 0.8744)
	//  5. doc011889  relevance 1.5851  (0.8381 + 0.7470)
	//  6. doc010637  relevance 1.4530  (0.5464 + 0.9066)
	//  7. doc014987  relevance 1.4342  (0.9146 + 0.5197)
	//  8. doc007511  relevance 1.4031  (0.6102 + 0.7929)
	//  9. doc009302  relevance 1.3877  (0.8356 + 0.5521)
	// 10. doc018277  relevance 1.3104  (0.6296 + 0.6808)
	//
	// Cost comparison for the same query:
	// algo     time           net bytes    kv reads   dollars
	// ijlmr    1.501001515s   1130         4900       $0.98
	// isl      4.295231ms     201336       2400       $0.48
	// bfhm     22.002599ms    47191        510        $0.11
}
