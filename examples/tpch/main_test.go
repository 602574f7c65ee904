package main

// Example runs the program and pins its whole output: every cost is
// simulated, so the figures are exact across runs.
func Example() {
	main()
	// Output:
	// TPC-H SF 0.002 on EC2: 400 parts, 3000 orders, 12036 lineitems
	//
	// === Q1 (Part x Lineitem, product), k=10 ===
	// index build: 28.307443827s, 37636 KV writes
	// algo     time             net bytes    kv reads   dollars  top-1 score
	// hive     7.538774098s     42371844     36918      $7.39    0.382636
	// pig      10.024318807s    2130284      48944      $9.79    0.382636
	// ijlmr    3.316267612s     1800         12436      $2.49    0.382636
	// isl      2.389374ms       15312        238        $0.05    0.382636
	// bfhm     417.755495ms     20762        168        $0.04    0.382636
	// drjn     2m26.335055402s  5639688      660788     $132.16  0.382636
	//
	// === Q2 (Orders x Lineitem, sum), k=10 ===
	// index build: 28.358446124s, 45528 KV writes
	// algo     time             net bytes    kv reads   dollars  top-1 score
	// hive     7.54302893s      42593030     42118      $8.43    1.043069
	// pig      10.028027773s    2305986      54144      $10.83   1.043069
	// ijlmr    3.319431628s     1834         15036      $3.01    1.043069
	// isl      7.330167ms       50822        746        $0.15    1.043069
	// bfhm     635.103565ms     44633        341        $0.07    1.043069
	// drjn     4m30.877655754s  53793708     1752124    $350.43  1.043069
}
