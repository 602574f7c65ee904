// Package rankjoin is a Go implementation of "Rank Join Queries in NoSQL
// Databases" (Ntarmos, Patlakas, Triantafillou — PVLDB 7(7), 2014): top-k
// join processing over a BigTable/HBase-style NoSQL store, generalized
// from the paper's binary equi-joins to acyclic join trees.
//
// The library bundles an embedded, deterministic NoSQL cluster (sorted
// key-value tables, column families, range-sharded regions, batched
// scans, server-side filters), a locality-aware MapReduce runtime, and
// the paper's full algorithm suite:
//
//   - Naive, Hive-style, and Pig-style baselines (Section 3)
//   - IJLMR — Inverse Join List MapReduce rank join (Section 4.1)
//   - ISL — Inverse Score List rank join over HRJN (Section 4.2), run
//     as any-k ranked enumeration: score-ordered streams per leaf
//     joined on arrival and one heap of complete matches behind a
//     generalized HRJN threshold, enumerating any acyclic join tree in
//     score order with no k fixed up front (AlgoAnyK is its alias)
//   - BFHM — Bloom Filter Histogram Matrix rank join with a guaranteed
//     100% recall (Section 5)
//   - DRJN — the 2-D histogram comparator (Section 7.1)
//
// plus online index maintenance (Section 6) and a cost model reporting
// the paper's three evaluation metrics for every query: simulated
// turnaround time, network bytes, and dollar cost (key-value read units).
//
// # Quick start
//
//	db, err := rankjoin.Open(rankjoin.Config{})
//	if err != nil {
//	    log.Fatal(err)
//	}
//	docs, _ := db.DefineRelation("docs")
//	imgs, _ := db.DefineRelation("imgs")
//	docs.Insert("d1", "apple", 0.9)
//	imgs.Insert("i7", "apple", 0.8)
//	q, _ := db.NewQuery("docs", "imgs", rankjoin.Sum, 10)
//	res, _ := db.TopK(q, rankjoin.AlgoAuto, nil)
//	for _, r := range res.Results {
//	    fmt.Println(r.Left.RowKey, r.Right.RowKey, r.Score)
//	}
//
// # Executors and the planner
//
// Every algorithm is one row of a fixed executor table (core.Executor):
// its name, the join shapes it supports, whether it enumerates
// incrementally, its estimator, its index family and how it runs. TopK,
// EnsureIndexes and IndexDiskSize dispatch through the table, which
// checks the shape, validates the tree, checks for the index and wraps
// the budget once for every row. On top of the table sits a cost-based
// planner: AlgoAuto plans each query against
// live table statistics, DRJN 2-D histograms, and BFHM Bloom-filter
// join estimates, then runs the cheapest strategy whose indexes exist.
// DB.Explain exposes the ranked candidate plans without running the
// query, and planned Results carry the estimate next to the measured
// cost so the estimator's error is visible per query:
//
//	p, _ := db.Explain(q, nil)
//	fmt.Print(p) // ranked candidates with predicted time/bytes/reads
//	res, _ := db.TopK(q, rankjoin.AlgoAuto, nil)
//	fmt.Println(res.Algorithm, res.Estimate.SimTime, res.Cost.SimTime)
//
// # Streaming and pagination
//
// Execution is cursor-based: every executor can open a pull-based
// cursor that yields join results one at a time in descending score
// order, with no k fixed up front, and the bounded TopK is a drain of
// that cursor. DB.Stream exposes the cursor directly as a Rows
// iterator, and TopK paginates through resumable page tokens — a full
// page carries Result.NextPageToken, and passing it back via
// QueryOptions.PageToken drains the next k results from the retained
// cursor instead of re-running the query:
//
//	res, _ := db.TopK(q, rankjoin.AlgoISL, nil)           // page 1
//	opts := &rankjoin.QueryOptions{PageToken: res.NextPageToken}
//	res2, _ := db.TopK(q, rankjoin.AlgoISL, opts)          // page 2, marginal cost
//
//	rows, _ := db.Stream(q, rankjoin.AlgoAuto, nil)        // unbounded enumeration
//	defer rows.Close()
//	for rows.Next() { fmt.Println(rows.Result().Score) }
//
// Which executors stream natively: ISL (on every tree) and DRJN are
// incremental — their sorted-access loops (one rank-join operator
// behind one cursor over batched inverse-score-list scans for ISL,
// DRJN's histogram band walk) pause at the exact input prefix each
// emitted result needs, so the next page pays only marginal work, and
// tied results always leave in row-key order. Naive, Hive, Pig, IJLMR,
// and BFHM are batch-shaped (their pipelines target a fixed k end to
// end) and stream through a materializing adapter that re-runs at
// doubled depths when drained past the page hint. AlgoAuto knows the
// difference: Stream-mode planning prices deep enumeration — marginal
// per-page cost for incremental cursors, the doubling re-run schedule
// for materializing ones — and can pick a different executor for deep
// pagination than for a one-shot top-k.
//
// # Join trees
//
// The general query shape is an acyclic join tree: relations are the
// leaves, the n-1 edges are join predicates — equi-predicates on the
// join attributes, or band predicates |a-b| <= w over numeric join
// values — and a monotonic aggregate (Sum, Product) scores complete
// matches. It is the only query form, and ScoreFunc — a function of the
// joined tuples' scores in relation order, however many — the only
// aggregate type. NewQuery builds the trivial two-leaf tree;
// NewTreeQuery builds stars (the paper's n-way equi-join, edges {0,i}),
// chains and general acyclic mixes. Both call one constructor, which
// requires every relation to be defined and listed once, and return a
// Query for the same TopK, Stream, Explain and EnsureIndexes; results
// carry the third and later leaves' tuples in JoinResult.Rest:
//
//	q, _ := db.NewTreeQuery(
//	    []string{"sensors", "readings", "alerts"},
//	    []rankjoin.TreeEdge{
//	        {A: 0, B: 1, Kind: rankjoin.PredEqui},
//	        {A: 1, B: 2, Kind: rankjoin.PredBand, Band: 0.5},
//	    },
//	    rankjoin.Sum, 10)
//	res, _ := db.TopK(q, rankjoin.AlgoISL, nil)
//	rows, _ := db.Stream(q, rankjoin.AlgoISL, nil)
//
// Structurally invalid trees (cyclic, disconnected, self-loops,
// out-of-range endpoints, duplicate edges, non-finite band widths)
// fail with a typed *ShapeError. AlgoISL executes every tree shape
// incrementally — per-leaf score-ordered streams are joined as their
// tuples arrive, complete matches wait in one heap, and a generalized
// HRJN threshold releases a match only when nothing unseen can beat it
// (README, "Join trees & any-k", says what that holds in memory and
// costs per tuple) — so tree queries stream, paginate, and respect
// budgets exactly like binary ones. It reads one inverse-score-list
// table per relation, shared by every tree that names it. Where the
// paper's Algorithm 4 takes turns between the lists, the cursor reads
// the list that currently bounds the threshold (HRJN*'s rule), so it
// reads each list to the score depth the threshold needs rather than
// all lists to the same count — the same rows, fewer read units on
// skewed joins and band chains. The naive executor answers trees
// through the materializing adapter.
// ParseTreeSpec and NewTreeQueryFromSpec decode the JSON wire form
// the HTTP server accepts on /topk, /stream, and /explain. A TreeSpec's
// edges are TreeEdge values in their JSON form, {"a", "b", "kind",
// "band"}, where an empty kind means equi.
//
// # Online updates
//
// Writes flow through a write-through maintenance pipeline (Section 6):
// every mutation is augmented with the index entries of EVERY structure
// built over the relation — one inverse-list entry per IJLMR index (a
// relation joined in several IJLMR queries has several, and all are
// maintained), one entry in the relation's inverse score list however
// many trees read it, BFHM reverse mappings, and a mutation record in
// the score bucket's row of each BFHM and DRJN index — and the whole
// augmented batch ships as one
// group write: a single write RPC with one shared timestamp, instead of
// one round trip per index cell.
//
//	docs.Insert("d9", "pear", 0.7)   // upsert: retires old entries if d9 exists
//	docs.Update("d9", "pear", 0.9)   // explicit re-score, one timestamp
//	docs.DeleteKey("d9")             // reads the row first; absent is a no-op
//	docs.BatchInsert(tuples)         // maintained load, one RPC per chunk
//
// Prefer DeleteKey to the blind Delete(rowKey, joinValue, score): a
// blind delete retried after the offline write-back pass applies twice
// and corrupts BFHM and DRJN counts shared with live tuples.
//
// Freshness guarantees, per executor: Naive, Hive, and Pig scan base
// tables and are trivially fresh. IJLMR and ISL read their inverse
// lists, which the pipeline mutates synchronously. BFHM and DRJN keep one
// mutation-record log with two blob kinds: a bucket row holds its blob (a
// hybrid filter with min/max, or a band's partition counts with lo/hi)
// and the records written since, which a query replays in timestamp
// order and never writes back; folding them into fresh blobs is the
// offline pass, WriteBackBFHM, for both indexes (the paper's eager and
// lazy write-back, in which a query writes, are deliberately left out:
// a rewritten row costs more to read until a major compaction, and a
// query served by one replica must not change its tables). A BFHM index
// remembers the buckets it has decoded and their pair estimates between
// queries, but reads every bucket row on every query and reuses a
// remembered bucket only when that row is byte-equal to the one it was
// decoded from, so a write is seen by the next query and a warm query
// bills what a cold one does. DRJN's replayed band counts and score
// bounds give the band walk fresh cardinalities and valid pull floors
// with no rebuild. A query issued after a write therefore reflects it
// on every executor.
// Planner statistics and cached plans are keyed on each table's
// mutation sequence, so cost estimates track live data too.
//
// Scores are normalized: each must be a number in [0, 1]. Every write
// on a RelationHandle (Insert, Update, BatchInsert, and BulkLoad)
// refuses a NaN, ±Inf or out-of-range score with a *ScoreError before
// anything is written, on a DB and on every cluster deployment alike;
// a tuple the engine could not store (no row key or join value, or a
// NUL in either) is refused the same way, before a router stamps or
// ships it: BFHM and DRJN lay their score histograms over
// [0, 1], so executors would otherwise rank such a score differently,
// and the TCP wire cannot carry a non-finite one.
//
// A write that fails part-way (base written, an index write refused)
// surfaces as a core.MaintenanceError naming the divergent index and
// carrying the batch's timestamp; re-applying the same transition with
// that timestamp through core.Maintainer.Write, the one internal
// re-apply entry point, is idempotent and converges the store. The
// public relation handles offer no timestamped re-apply.
//
// # Failure handling and graceful degradation
//
// Queries are boundable: QueryOptions carries a cancellation Context,
// a wall-clock Deadline, and a MaxReadUnits spend cap, and every
// executor checks them cooperatively. A tripped bound returns a typed
// error carrying the partial results collected so far:
//
//	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
//	defer cancel()
//	res, err := db.TopK(q, rankjoin.AlgoAuto, &rankjoin.QueryOptions{
//	    Context:      ctx,
//	    MaxReadUnits: 10000,
//	})
//	var ce *rankjoin.CanceledError      // matches rankjoin.ErrCanceled
//	var be *rankjoin.BudgetExceededError
//	switch {
//	case errors.As(err, &ce):
//	    fmt.Println("timed out with", len(ce.Partial), "results")
//	case errors.As(err, &be):
//	    fmt.Println("spent", be.Spent, "of", be.Limit, "read units")
//	}
//
// Storage faults are typed too: a failed checksum surfaces as a
// *CorruptionError (matching ErrCorruption) naming the file and byte
// offset, and an I/O failure as an *IOError naming the file and
// operation — never as a silently truncated result set. Config.VFS
// plugs a custom filesystem under durable stores (internal/faultfs
// injects deterministic faults in the tests), and the underlying
// store's Scrub and Quarantined (via DB.Cluster) verify every on-disk
// checksum proactively, quarantining tables that fail. OpenAt over a
// store whose MANIFEST, catalog or an SSTable is of another format
// version fails with a *FormatVersionError naming it and the version
// found; it does not match ErrCorruption, and nothing is converted.
//
// # Distribution
//
// OpenDistributed fronts N region servers as one logical store behind
// the transport seam (internal/transport): each node is either an
// in-process DB reached over a zero-copy loopback, or an rjnode
// process reached over TCP — the router cannot tell the difference. On
// TCP each message is a 14-byte binary header (frame version 0xF4,
// sequence number, method or status, body length) and its body, decoded
// once: a TopK reply's ranked results in a hand-written binary layout,
// every other message and every error in JSON. The router and rjnode
// must come from the same build: a peer of another frame version is
// refused, typed, on its first frame, and a server answers such a frame
// with one error frame in its own format before it hangs up. The seam
// sits at node granularity, matching the paper's compute-to-data
// design: whole queries ship to a replica and execute next to its data;
// only results come back.
//
//	d, _ := rankjoin.OpenDistributed(rankjoin.Config{Topology: &rankjoin.Topology{
//	    Nodes: []rankjoin.NodeSpec{
//	        {Name: "a"},                          // in-process loopback
//	        {Name: "b", Dir: "/data/b"},          // loopback, durable
//	        {Name: "c", Addr: "10.0.0.3:7070"},   // remote rjnode over TCP
//	    },
//	}})
//	rel, _ := d.DefineRelation("docs")
//	rel.Insert("d1", "apple", 0.9)                // replicated upsert
//	q, _ := d.NewQuery("docs", "imgs", rankjoin.Sum, 10)
//	res, _ := d.TopK(q, rankjoin.AlgoAuto, nil)   // ships to one replica
//	rows, _ := d.Stream(q, rankjoin.AlgoAuto, nil) // *Rows, as from a DB
//
// DB and Distributed present one surface: the query constructors exist
// once (both embed them), TopK answers with the same Result and Stream
// with the same Rows — a DB's draws from an executor's cursor, a
// Distributed's draws pages through TopK's failover path, and
// QueryOptions bound the whole stream either way — and both hand out
// the one *RelationHandle, whose maintained writes read the row, resolve
// the transition by one rule, and then apply it through a DB's
// maintainer or replicate it through the router. Its engine-local calls
// (Delete, WriteBackBFHM) return ErrEngineLocal on a Distributed, and
// DiskSize reports 0 there. cmd/rjserve's handlers are written against
// this surface and hold either store.
//
// Replication is deterministic: the handle resolves each write against
// the tuple the replica group's leader holds, the router stamps one
// timestamp and ships the same resolved operation to every replica,
// where the write-through maintenance pipeline applies it at that
// timestamp. A BulkLoad ships likewise, each replica landing it through
// its own bulk door at the router's timestamp. Because the
// store's logical clocks are deterministic under identical operation
// sequences, replicas converge byte-identically — base tables and
// every index — and any replica serves any executor with the exact
// answer a single-process store would give. Writes ack at a quorum,
// a majority of the replicas; a write that cannot reach it fails with a
// typed *ReplicationError naming acks received versus required, and a
// read with no live replica fails with a *NoReplicaError matching
// ErrUnavailable. A node that missed acked writes is marked dirty and
// excluded from leader, quorum, and repair-source duty until
// anti-entropy re-converges it.
//
// Distributed.Repair runs Merkle anti-entropy (internal/merkle,
// internal/topology): every table is summarized per replica as a
// Merkle tree over hash-token-range row digests, trees are diffed
// against the group's first clean replica, and only divergent leaves'
// cells ship, applied at their original timestamps. A replica that
// cannot even summarize a table — checksums failing, regions
// quarantined — gets a full resync (drop, recreate, re-ingest),
// since there is no trustworthy local state to diff against.
// Page tokens survive node loss: the composite token pins the serving
// node, and when that node dies the next page is recomputed exactly on
// a survivor (determinism again) at the requested offset.
package rankjoin
