package main

import (
	"fmt"
	"time"

	"minshare/internal/costmodel"
	"minshare/internal/leakage"
	"minshare/internal/transport"
)

// runE12 projects the wall-clock effect of shard-parallel execution
// (core.Config.Shards = k) from the certified closed forms: the compute
// term is the Section 6.1 C_e census at the host-calibrated per-op cost
// (the sharded census is proven equal to the unsharded one in
// internal/costmodel's cross-check tests), the comm term is the wire
// census over the link, and ShardedWallEstimate pipelines the two with
// compute divided across min(k, P) processors.  The measured side at
// this host's processor count is psibench's isect_ec_shard4 workload.
func runE12(env *environment) error {
	n := 1_000_000
	if env.quick {
		n = 10_000
	}
	links := []transport.LinkModel{
		transport.T1,
		{BitsPerSecond: 100e6, Name: "LAN"},
	}
	const k = 8

	ops := costmodel.IntersectionOps(n, n)
	compute := ops.Time(env.costs, 1)
	bits := costmodel.IntersectionCommBits(n, n, env.group.Bits())

	fmt.Printf("intersection |V| = %d, group %d bits, k = %d shards\n", n, env.group.Bits(), k)
	fmt.Println("link  P  T_compute  T_comm     sequential  sharded     speedup")
	for _, link := range links {
		comm := time.Duration(bits / link.BitsPerSecond * float64(time.Second))
		seq := compute + comm
		for _, p := range []int{1, 8} {
			wall := costmodel.ShardedWallEstimate(compute, comm, k, p)
			fmt.Printf("%-4s  %d  %-9v  %-9v  %-10v  %-10v  %.2fx\n",
				link.Name, p, compute.Round(time.Second/10), comm.Round(time.Second/10),
				seq.Round(time.Second/10), wall.Round(time.Second/10),
				float64(seq)/float64(wall))
		}
	}

	// The price of sharding is the per-shard size vector each party
	// reveals: quantify it for an honest (near-balanced) split of n.
	sizes := make([]int, k)
	for i := range sizes {
		sizes[i] = n / k
	}
	sizes[0] += n % k
	leak := leakage.ShardSplit(sizes)
	fmt.Printf("leakage: balanced %d-way split of %d values ~ %.1f bits surprisal (support %.1f bits)\n",
		k, n, leak.SurprisalBits, leak.SupportBits)
	return nil
}
