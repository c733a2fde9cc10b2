package main

import (
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"syscall"
	"time"
)

// minFreeBytes is the free space a run needs before it starts: kit.closed
// writes about 0.45 GB of readings three times over, plus WAL and compaction
// copies, and two set-ups can briefly coexist.
const minFreeBytes = 4 << 30

// environment records where the numbers were taken, as Grambow et al. ask.
type environment struct {
	Commit     string  `json:"commit"`
	GoVersion  string  `json:"go_version"`
	NumCPU     int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Kernel     string  `json:"kernel"`
	FsyncUS    float64 `json:"fsync_probe_us"` // median of 100 4 KiB write+fsync calls in the data dir
	FreeDiskGB float64 `json:"free_disk_gb"`
	Time       string  `json:"time"`
}

func freeBytes(dir string) (uint64, error) {
	var fs syscall.Statfs_t
	if err := syscall.Statfs(dir, &fs); err != nil {
		return 0, err
	}
	return fs.Bavail * uint64(fs.Bsize), nil
}

// checkDisk refuses to start on a disk too full to hold a run.
func checkDisk(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	free, err := freeBytes(dir)
	if err != nil {
		return err
	}
	if free < minFreeBytes {
		return fmt.Errorf("only %.1f GB free under %s, a run needs %d", float64(free)/1e9, dir, minFreeBytes>>30)
	}
	return nil
}

func describeEnvironment(dir string) environment {
	e := environment{
		Commit:     "unknown",
		GoVersion:  runtime.Version(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Kernel:     "unknown",
		Time:       time.Now().UTC().Format(time.RFC3339),
	}
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		e.Commit = strings.TrimSpace(string(out))
	}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		e.Kernel = strings.TrimSpace(string(b))
	}
	if free, err := freeBytes(dir); err == nil {
		e.FreeDiskGB = float64(free) / 1e9
	}
	e.FsyncUS = fsyncProbe(dir)
	return e
}

// fsyncProbe times 100 small durable writes where the workloads will write.
func fsyncProbe(dir string) float64 {
	f, err := os.CreateTemp(dir, "fsync-probe-")
	if err != nil {
		return 0
	}
	defer os.Remove(f.Name())
	defer f.Close()
	block := make([]byte, 4096)
	var us []float64
	for i := 0; i < 100; i++ {
		start := time.Now()
		if _, err := f.Write(block); err != nil {
			return 0
		}
		if err := f.Sync(); err != nil {
			return 0
		}
		us = append(us, float64(time.Since(start).Nanoseconds())/1e3)
	}
	return median(us)
}
