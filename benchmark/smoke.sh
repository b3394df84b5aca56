#!/usr/bin/env bash
# Checks the harness without a full pass: every workload once at a tenth of
# its operations and one repetition, every reply verified, every validity
# guard on. Under 20 s once built. `benchmark/smoke.sh --trace 1` smokes the
# traced pass instead (about two minutes: the probes do not scale down).
set -euo pipefail
here="$(dirname "${BASH_SOURCE[0]}")"
for workload in spend_closed spend_open spend_ed25519 bigstate_ckpt; do
    "$here/run.sh" --workload "$workload" --quick --strict "$@" | tail -n 1
done
echo "smoke: all four workloads correct"
