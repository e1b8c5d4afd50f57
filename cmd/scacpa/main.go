// Command scacpa runs correlation power analysis against any cipher
// target in the registry (aes, chacha20, present, speck64): the §5
// bare-metal attack with the target's table-driven class model (fig3
// workload), the AES-specific loaded-Linux attack (fig4), and the
// full-key and rank-evolution workloads built on the fig3 model.
//
// Trace synthesis and CPA accumulation stream across all cores by
// default (-workers); results are identical for any worker count.
//
// Usage:
//
//	scacpa [-target T] [-figure fig3,fullkey] [-traces N] [-keybyte B] [-rounds R]
//	       [-workers W] [-replay auto|replay|simulate]
package main

import (
	"os"

	"repro/internal/scacli"
)

func main() {
	os.Exit(scacli.Main(os.Args[1:], os.Stdout, os.Stderr))
}
