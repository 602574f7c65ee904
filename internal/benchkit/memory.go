package benchkit

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/kvstore"
	"repro/internal/mapreduce"
	"repro/internal/sim"
	"repro/internal/tpch"
)

// MemoryReport reproduces the Section 7.2 reducer-memory list: the peak
// memory any single reducer needs while building each index. IJLMR and
// ISL build with map-only jobs ("negligible"); BFHM's reducers buffer a
// bucket's tuples while building its filter; DRJN's buffer a band.
func MemoryReport(profile sim.Profile, sf float64, seed int64) (string, error) {
	c, err := kvstore.NewCluster(profile)
	if err != nil {
		return "", err
	}
	data := tpch.Generate(sf, seed)
	if err := tpch.Load(c, data, "orderkey"); err != nil {
		return "", err
	}
	rel := core.Relation{
		Name:      "lineitem",
		Table:     tpch.LineitemT,
		Family:    tpch.DataFamily,
		JoinQual:  tpch.JoinQual,
		ScoreQual: tpch.ScoreQual,
	}

	out := fmt.Sprintf("Reducer memory during index build (profile %s, SF %g, lineitem: %d rows)\n",
		profile.Name, sf, len(data.Lineitems))
	out += fmt.Sprintf("%-22s %-20s\n", "index build", "peak bucket working set (bytes)")

	peak := func(rs []*mapreduce.Result) uint64 {
		var m uint64
		for _, r := range rs {
			if r.PeakReduceGroup > m {
				m = r.PeakReduceGroup
			}
		}
		return m
	}

	ijRes, err := core.BuildIJLMRRelation(c, rel, mustTable(c, "mem_ijlmr", "lineitem"), "lineitem")
	if err != nil {
		return "", err
	}
	out += fmt.Sprintf("%-22s %-20d (map-only: negligible)\n", "ijlmr/lineitem", ijRes.PeakReduceGroup)

	_, islRes, err := core.BuildISLRelation(c, rel)
	if err != nil {
		return "", err
	}
	out += fmt.Sprintf("%-22s %-20d (map-only: negligible)\n", "isl/lineitem", islRes.PeakReduceGroup)

	for _, buckets := range []int{100, 500} {
		bRel := rel
		bRel.Name = fmt.Sprintf("lineitem_m%d", buckets)
		_, rs, err := core.BuildBFHM(c, bRel, core.BFHMOptions{NumBuckets: buckets})
		if err != nil {
			return "", err
		}
		out += fmt.Sprintf("%-22s %-20d\n", fmt.Sprintf("bfhm/%d buckets", buckets), peak(rs))
	}
	for _, buckets := range []int{100, 500} {
		dRel := rel
		dRel.Name = fmt.Sprintf("lineitem_d%d", buckets)
		_, res, err := core.BuildDRJN(c, dRel, core.DRJNOptions{NumBuckets: buckets, JoinParts: 64})
		if err != nil {
			return "", err
		}
		out += fmt.Sprintf("%-22s %-20d\n", fmt.Sprintf("drjn/%d buckets", buckets), res.PeakReduceGroup)
	}
	out += "\nShape under reproduction: map-only IJLMR/ISL builds buffer nothing at\n" +
		"reducers; BFHM reducer memory shrinks as bucket count grows (the paper\n" +
		"measured 4 GB worst-case at 100 buckets vs 2 GB at 500); DRJN reducers\n" +
		"hold only histogram bands.\n"
	return out, nil
}

func mustTable(c *kvstore.Cluster, name, family string) string {
	if _, err := c.CreateTable(name, []string{family}, nil); err != nil {
		panic(err)
	}
	return name
}
