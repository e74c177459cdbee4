package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
)

// machine identifies the host a reading was taken on; readings from
// different fingerprints are not comparable.
type machine struct {
	gomaxprocs, nproc int
	cpu, goVersion    string
	l2, l3            string
}

func (m machine) String() string {
	return fmt.Sprintf("GOMAXPROCS=%d nproc=%d cpu=%q go=%s L2=%s L3=%s", m.gomaxprocs, m.nproc, m.cpu, m.goVersion, m.l2, m.l3)
}

func fingerprint() machine {
	m := machine{
		gomaxprocs: runtime.GOMAXPROCS(0), nproc: runtime.NumCPU(), goVersion: runtime.Version(),
		cpu: "unknown", l2: "unknown", l3: "unknown",
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				m.cpu = strings.TrimSpace(v)
				break
			}
		}
		f.Close()
	}
	// Cache sizes as the kernel reports them for CPU 0 (L2 per core, L3
	// shared).
	dirs, _ := filepath.Glob("/sys/devices/system/cpu/cpu0/cache/index*")
	for _, d := range dirs {
		level, err1 := os.ReadFile(filepath.Join(d, "level"))
		size, err2 := os.ReadFile(filepath.Join(d, "size"))
		if err1 != nil || err2 != nil {
			continue
		}
		switch strings.TrimSpace(string(level)) {
		case "2":
			m.l2 = strings.TrimSpace(string(size))
		case "3":
			m.l3 = strings.TrimSpace(string(size))
		}
	}
	return m
}
