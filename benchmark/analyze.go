package main

import "sort"

// selfTime is a span's duration minus the part of its interval that
// its children cover (children may overlap each other and are clipped
// to the parent).
func selfTime(parent span, children []span) int64 {
	kids := append([]span(nil), children...)
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	covered, at := int64(0), parent.Start
	for _, k := range kids {
		lo, hi := max(k.Start, at), min(k.End, parent.End)
		if hi > lo {
			covered += hi - lo
			at = hi
		}
	}
	return parent.dur() - covered
}

// batchTimes is where one traced batch's time went, in nanoseconds.
type batchTimes struct {
	Ack, Client                     int64 // whole batch; encode + frame write
	LeaderWrite, LeaderFsync        int64 // summed over the leader's WAL spans
	ReplSum, ReplMax                int64 // over the followers' round trips
	LeaderOther                     int64 // client.wait's self time
	FollowerWrite, FollowerFsync    int64 // summed over both followers
	FollowerOther                   int64 // the round trips' self time, summed
	LeaderFsyncs, LeaderWALBytes    int
	FollowerFsyncs, FollowerRecords int
}

// breakdown folds linked spans into one batchTimes per traced batch,
// plus the per-span samples the percentile metrics want.
type breakdown struct {
	Batches                                  []batchTimes
	EncodeUs, LeaderFsyncUs, FollowerFsyncUs []float64
	RTTUs, FollowerOtherUs                   []float64
	SubmitBytes                              int
}

func analyze(spans []span) breakdown {
	byTrace := map[uint64][]span{}
	var order []uint64
	for _, s := range spans {
		if s.Trace == 0 {
			continue
		}
		if _, seen := byTrace[s.Trace]; !seen {
			order = append(order, s.Trace)
		}
		byTrace[s.Trace] = append(byTrace[s.Trace], s)
	}
	sort.Slice(order, func(i, j int) bool { return order[i] < order[j] })

	var bd breakdown
	us := func(ns int64) float64 { return float64(ns) / 1e3 }
	for _, id := range order {
		var bt batchTimes
		var wait span
		var underWait, rtts []span
		for _, s := range byTrace[id] {
			switch s.Name {
			case spanAck:
				bt.Ack = s.dur()
			case spanClientEncode:
				bt.Client += s.dur()
				bd.EncodeUs = append(bd.EncodeUs, us(s.dur()))
			case spanClientWrite:
				bt.Client += s.dur()
				bd.SubmitBytes += s.Bytes
			case spanClientWait:
				wait = s
			case spanLeaderWrite:
				bt.LeaderWrite += s.dur()
				bt.LeaderWALBytes += s.Bytes
				underWait = append(underWait, s)
			case spanLeaderFsync:
				bt.LeaderFsync += s.dur()
				bt.LeaderFsyncs++
				bd.LeaderFsyncUs = append(bd.LeaderFsyncUs, us(s.dur()))
				underWait = append(underWait, s)
			case spanReplRTT:
				bt.ReplSum += s.dur()
				bt.ReplMax = max(bt.ReplMax, s.dur())
				bd.RTTUs = append(bd.RTTUs, us(s.dur()))
				underWait = append(underWait, s)
				rtts = append(rtts, s)
			}
		}
		bt.LeaderOther = selfTime(wait, underWait)
		for _, r := range rtts {
			var inside []span
			for _, s := range byTrace[id] {
				if s.Member != r.Member || s.Start < r.Start || s.Start > r.End {
					continue
				}
				switch s.Name {
				case spanFollowerWrite:
					bt.FollowerWrite += s.dur()
					inside = append(inside, s)
				case spanFollowerFsync:
					bt.FollowerFsync += s.dur()
					bt.FollowerFsyncs++
					bd.FollowerFsyncUs = append(bd.FollowerFsyncUs, us(s.dur()))
					inside = append(inside, s)
				}
			}
			other := selfTime(r, inside)
			bt.FollowerOther += other
			bt.FollowerRecords++
			bd.FollowerOtherUs = append(bd.FollowerOtherUs, us(other))
		}
		bd.Batches = append(bd.Batches, bt)
	}
	return bd
}

// column extracts one field of every batch as microseconds.
func (bd breakdown) column(f func(batchTimes) int64) []float64 {
	out := make([]float64, len(bd.Batches))
	for i, bt := range bd.Batches {
		out[i] = float64(f(bt)) / 1e3
	}
	return out
}

// typical returns the batches whose ack lies in the middle fifth of the
// distribution (40th to 60th percentile): the batches the median ack
// speaks for.
func (bd breakdown) typical() []batchTimes {
	byAck := append([]batchTimes(nil), bd.Batches...)
	sort.Slice(byAck, func(i, j int) bool { return byAck[i].Ack < byAck[j].Ack })
	n := len(byAck)
	return byAck[n*2/5 : max(n*3/5, n*2/5+1)]
}

// layerMetrics turns a breakdown into the seam-traced per-layer
// metrics. A share says where the median ack's time goes: the
// component's part of the typical batches' time (see typical). The five
// top-level components partition every batch, so their shares sum to
// 100; a sum of per-component medians would not, because the components
// are skewed and only loosely correlated.
func (bd breakdown) layerMetrics(m map[string]float64) {
	n := float64(len(bd.Batches))
	if n == 0 {
		return
	}
	ack := median(bd.column(func(b batchTimes) int64 { return b.Ack }))
	p50 := func(f func(batchTimes) int64) float64 { return median(bd.column(f)) }
	mid := bd.typical()
	share := func(f func(batchTimes) int64) float64 {
		var part, whole int64
		for _, b := range mid {
			part += f(b)
			whole += b.Ack
		}
		return 100 * float64(part) / float64(whole)
	}
	sum := func(f func(batchTimes) int) float64 {
		t := 0
		for _, b := range bd.Batches {
			t += f(b)
		}
		return float64(t)
	}

	m["client.encode_us_p50"] = median(bd.EncodeUs)
	m["wire.submit_bytes_per_batch"] = float64(bd.SubmitBytes) / n
	m["leader.wal_write_us_p50"] = p50(func(b batchTimes) int64 { return b.LeaderWrite })
	m["leader.fsync_us_p50"] = median(bd.LeaderFsyncUs)
	m["leader.fsync_us_p99"] = percentile(bd.LeaderFsyncUs, 99)
	m["leader.fsyncs_per_batch"] = sum(func(b batchTimes) int { return b.LeaderFsyncs }) / n
	m["leader.wal_bytes_per_batch"] = sum(func(b batchTimes) int { return b.LeaderWALBytes }) / n
	m["leader.other_us_p50"] = p50(func(b batchTimes) int64 { return b.LeaderOther })
	m["follower.fsync_us_p50"] = median(bd.FollowerFsyncUs)
	if recs := sum(func(b batchTimes) int { return b.FollowerRecords }); recs > 0 {
		m["follower.fsyncs_per_batch"] = sum(func(b batchTimes) int { return b.FollowerFsyncs }) / recs
	}
	m["follower.other_us_p50"] = median(bd.FollowerOtherUs)
	m["repl.rtt_us_p50"] = median(bd.RTTUs)
	m["repl.rtt_us_p99"] = percentile(bd.RTTUs, 99)
	m["repl.rtt_sum_us_p50"] = p50(func(b batchTimes) int64 { return b.ReplSum })
	m["repl.rtt_max_us_p50"] = p50(func(b batchTimes) int64 { return b.ReplMax })

	m["traced.ack_us_p50"] = ack
	m["share.client_pct"] = share(func(b batchTimes) int64 { return b.Client })
	m["share.leader_wal_write_pct"] = share(func(b batchTimes) int64 { return b.LeaderWrite })
	m["share.leader_fsync_pct"] = share(func(b batchTimes) int64 { return b.LeaderFsync })
	m["share.repl_pct"] = share(func(b batchTimes) int64 { return b.ReplSum })
	m["share.leader_other_pct"] = share(func(b batchTimes) int64 { return b.LeaderOther })
	m["share.follower_fsync_pct"] = share(func(b batchTimes) int64 { return b.FollowerFsync })
	m["share.follower_other_pct"] = share(func(b batchTimes) int64 { return b.FollowerOther })
}
