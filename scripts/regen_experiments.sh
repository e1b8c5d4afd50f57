#!/usr/bin/env sh
# Regenerates the campaign-marked sections of EXPERIMENTS.md from the
# committed campaign results. TestExperimentsDocMatchesCommittedResults
# (go test ./internal/campaign) fails when this would change the file,
# so the experiment record cannot drift from the committed results
# (which are themselves byte-compared against a fresh campaign run).
#
# Two campaigns share the document. Each marker names its owning
# campaign (paper/table2, countermeasures/tvla), so each update
# rewrites exactly its own campaign's regions.
set -eu
cd "$(dirname "$0")/.."
go run ./cmd/campaign -results campaigns/paper.results.json -update-doc EXPERIMENTS.md
go run ./cmd/campaign -results campaigns/countermeasures.results.json -update-doc EXPERIMENTS.md
