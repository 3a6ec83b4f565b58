package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"syscall"
	"time"
)

// hostShape is the machine a result was measured on, as data.
type hostShape struct {
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	FSType     string  `json:"fs_type"`
	FsyncUsP50 float64 `json:"fsync_us_p50"`
}

// fsMagic names the filesystems a checkout plausibly sits on, by their
// statfs f_type.
var fsMagic = map[uint32]string{
	0xEF53:     "ext4",
	0x58465342: "xfs",
	0x9123683E: "btrfs",
	0x794C7630: "overlayfs",
	0x01021994: "tmpfs",
	0x2FC12FC1: "zfs",
	0x6969:     "nfs",
	0x65735546: "fuse",
}

// fsType reports the filesystem holding dir.
func fsType(dir string) (string, error) {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "", fmt.Errorf("statfs %s: %w", dir, err)
	}
	magic := uint32(st.Type)
	if name, ok := fsMagic[magic]; ok {
		return name, nil
	}
	return fmt.Sprintf("0x%x", magic), nil
}

// requireDisk refuses a work directory on tmpfs: fsync is free there,
// and three serial fsyncs are most of a small batch's latency, so every
// number taken on it would describe a different system.
func requireDisk(dir string) (string, error) {
	fs, err := fsType(dir)
	if err != nil {
		return "", err
	}
	if fs == "tmpfs" {
		return fs, fmt.Errorf("benchmark: %s is on tmpfs, where fsync costs nothing; run from a checkout on a real disk", dir)
	}
	return fs, nil
}

// hostProbe is one fixed piece of CPU work and one fixed piece of disk
// work, timed. A workload is bracketed by two of them; when they
// disagree the machine changed under the run.
type hostProbe struct {
	SpinMs     float64
	FsyncUsP50 float64
}

// The probe's fixed CPU work: spinSlices slices of spinRounds xorshift
// steps, about a third of a second in all on the reference host — long
// enough to see a stolen or throttled core, short enough to bracket
// every one of a hundred-odd driver runs. The median slice is reported,
// so one preempted slice does not mark a quiet run noisy.
const (
	spinSlices = 5
	spinRounds = 32_000_000
)

// spinSink keeps the spin loop's result alive (atomic: the tests run
// several probes at once).
var spinSink atomic.Uint64

func probeHost(dir string) (hostProbe, error) {
	var slices []float64
	x := uint64(0x9E3779B97F4A7C15)
	for s := 0; s < spinSlices; s++ {
		start := time.Now()
		for i := 0; i < spinRounds; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
		}
		slices = append(slices, float64(time.Since(start))/1e6)
	}
	spinSink.Store(x)
	p := hostProbe{SpinMs: median(slices)}

	f, err := os.Create(filepath.Join(dir, "probe.dat"))
	if err != nil {
		return p, err
	}
	defer os.Remove(f.Name())
	defer f.Close()
	block := make([]byte, 4096)
	var us []float64
	for i := 0; i < 200; i++ {
		t0 := time.Now()
		if _, err := f.Write(block); err != nil {
			return p, err
		}
		if err := f.Sync(); err != nil {
			return p, err
		}
		us = append(us, float64(time.Since(t0))/1e3)
	}
	p.FsyncUsP50 = median(us)
	return p, nil
}

// disagrees reports whether two probes differ by more than 10% on
// either axis — the run between them is then marked noisy (and still
// reported).
func (p hostProbe) disagrees(q hostProbe) bool {
	off := func(a, b float64) bool { return math.Abs(a-b) > 0.10*math.Min(a, b) }
	return off(p.SpinMs, q.SpinMs) || off(p.FsyncUsP50, q.FsyncUsP50)
}

func describeHost(dir string, p hostProbe) (hostShape, error) {
	fs, err := requireDisk(dir)
	if err != nil {
		return hostShape{}, err
	}
	return hostShape{
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		FSType: fs, FsyncUsP50: p.FsyncUsP50,
	}, nil
}
