package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// envInfo is recorded with every result: a number without its machine is
// not comparable with anything.
type envInfo struct {
	GoVersion    string  `json:"go_version"`
	GOMAXPROCS   int     `json:"gomaxprocs"`
	NumCPU       int     `json:"num_cpu"`
	CPUModel     string  `json:"cpu_model"`
	Kernel       string  `json:"kernel"`
	WALFsType    string  `json:"wal_filesystem"`
	FsyncP50US   float64 `json:"fsync_probe_p50_us"`
	FsyncSamples int     `json:"fsync_probe_samples"`
}

func (e envInfo) summary() string {
	return fmt.Sprintf("%s GOMAXPROCS=%d %s, kernel %s, wal fs %s, raw fsync p50 %.0f µs",
		e.GoVersion, e.GOMAXPROCS, e.CPUModel, e.Kernel, e.WALFsType, e.FsyncP50US)
}

// captureEnv records the environment and probes the raw fsync cost of the
// filesystem the WAL will live on, then writes env.json into dir.
func captureEnv(dir string) envInfo {
	e := envInfo{
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		CPUModel:   firstField("/proc/cpuinfo", "model name"),
		Kernel:     strings.TrimSpace(readFile("/proc/sys/kernel/osrelease")),
		WALFsType:  fsType(dir),
	}
	e.FsyncP50US, e.FsyncSamples = fsyncProbe(dir, 64)
	_ = writeJSON(filepath.Join(dir, "env.json"), e)
	return e
}

func readFile(path string) string {
	raw, err := os.ReadFile(path)
	if err != nil {
		return ""
	}
	return string(raw)
}

func firstField(path, key string) string {
	f, err := os.Open(path)
	if err != nil {
		return ""
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if name, val, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(name) == key {
			return strings.TrimSpace(val)
		}
	}
	return ""
}

// fsType names the filesystem holding dir by its statfs magic number.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint32(st.Type) {
	case 0xEF53:
		return "ext4"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	case 0x794C7630:
		return "overlayfs"
	case 0x01021994:
		return "tmpfs"
	}
	return fmt.Sprintf("0x%x", uint32(st.Type))
}

// fsyncProbe times n small append+fsync pairs on a scratch file in dir: the
// floor under every commit wait the WAL imposes.
func fsyncProbe(dir string, n int) (p50us float64, samples int) {
	f, err := os.CreateTemp(dir, "fsync-probe-")
	if err != nil {
		return 0, 0
	}
	defer os.Remove(f.Name())
	defer f.Close()
	buf := make([]byte, 256)
	var took []float64
	for i := 0; i < n; i++ {
		start := time.Now()
		if _, err := f.Write(buf); err != nil {
			break
		}
		if err := f.Sync(); err != nil {
			break
		}
		took = append(took, float64(time.Since(start))/1e3)
	}
	return median(took), len(took)
}

// cpuJiffies reads the machine-wide CPU accounting: the time the hypervisor
// ran something else while a vCPU had work (steal) and the total.
func cpuJiffies() (steal, total float64) {
	line, _, _ := strings.Cut(readFile("/proc/stat"), "\n")
	f := strings.Fields(line)
	for i := 1; i < len(f) && i <= 8; i++ {
		v, _ := strconv.ParseFloat(f[i], 64)
		total += v
		if i == 8 {
			steal = v
		}
	}
	return steal, total
}
