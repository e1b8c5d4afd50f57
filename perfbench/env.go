package main

import (
	"bufio"
	"os"
	"runtime"
	"strings"

	"repro/internal/cpufeat"
)

// environment is the block every output carries: per-layer costs depend
// on the CPU and on which SIMD kernels run, so two numbers compare only
// when these blocks match.
type environment struct {
	CPU            string `json:"cpu"`
	NProc          int    `json:"nproc"`
	GOMAXPROCS     int    `json:"gomaxprocs"`
	GoVersion      string `json:"go_version"`
	AVX            bool   `json:"avx"`
	AVX512         bool   `json:"avx512"`
	VPOPCNTDQ      bool   `json:"avx512_vpopcntdq"`
	ForcePortable  string `json:"repro_force_portable"`
	EngineWorkers  int    `json:"engine_workers"`
	ScadClients    int    `json:"scad_clients"`
	ScadConcurrent int    `json:"scad_max_concurrent"`
}

// load is the single sizing knob: engine workers, GOMAXPROCS, scad
// clients and scad MaxConcurrent all equal the number of CPUs.
func load() int { return runtime.NumCPU() }

func readEnvironment() environment {
	n := load()
	return environment{
		CPU:            cpuModel(),
		NProc:          n,
		GOMAXPROCS:     runtime.GOMAXPROCS(0),
		GoVersion:      runtime.Version(),
		AVX:            cpufeat.AVX,
		AVX512:         cpufeat.AVX512,
		VPOPCNTDQ:      cpufeat.AVX512Popcnt,
		ForcePortable:  os.Getenv(cpufeat.ForcePortableEnv),
		EngineWorkers:  n,
		ScadClients:    n,
		ScadConcurrent: n,
	}
}

// cpuModel returns the first "model name" of /proc/cpuinfo, or the
// architecture where that file does not exist.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}
