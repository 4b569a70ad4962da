package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"strings"
	"syscall"
	"time"
)

// host identifies the machine a record came from: two hosts of one class
// can differ by 2x, so a figure without its host is not comparable.
type host struct {
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPUModel   string `json:"cpu_model"`
	GoVersion  string `json:"go_version"`
	Kernel     string `json:"kernel"`
	DataDirFS  string `json:"data_dir_fs"`
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	// CalibMS times a fixed loop that uses none of the program's code, so
	// a metric that moved with it moved with the host, not the program.
	CalibMS float64 `json:"calib_ms"`
}

func hostInfo(dataDir, workload string, seed int64) host {
	h := host{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUModel:   "unknown",
		GoVersion:  runtime.Version(),
		Kernel:     "unknown",
		DataDirFS:  fsType(dataDir),
		Workload:   workload,
		Seed:       seed,
		CalibMS:    calibrate(),
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPUModel = strings.TrimSpace(v)
				break
			}
		}
		f.Close()
	}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		h.Kernel = strings.TrimSpace(string(b))
	}
	return h
}

// calibSink keeps the calibration loop's result live.
var calibSink float64

// calibrate is the median of five passes of a fixed arithmetic sweep over
// 16 MiB, a working set past L2 like the likelihood kernels'.
func calibrate() float64 {
	buf := make([]float64, 1<<21)
	xs := make([]float64, 0, 5)
	for r := 0; r < 5; r++ {
		t0 := time.Now()
		s := 0.0
		for k := 0; k < 4; k++ {
			for i := range buf {
				buf[i] = buf[i]*0.5 + float64(i&7)
				s += buf[i]
			}
		}
		calibSink += s
		xs = append(xs, ms(time.Since(t0)))
	}
	return percentile(xs, 50)
}

// fsType names the filesystem holding dir from its statfs magic number.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint32(st.Type) {
	case 0xEF53:
		return "ext4"
	case 0x01021994:
		return "tmpfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	case 0x794C7630:
		return "overlayfs"
	default:
		return fmt.Sprintf("0x%x", uint32(st.Type))
	}
}
