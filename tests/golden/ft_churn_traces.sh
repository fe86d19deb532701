#!/bin/sh
# Writes the NDJSON traces pinned by ft_churn_traces.sha256 into the current
# directory: fault-injected and churning single-job runs replayed through the
# conformance fuzzer. Usage (from the repo root):
#
#   mkdir -p golden-out && cd golden-out
#   sh ../tests/golden/ft_churn_traces.sh ../build/tools/olb_fuzz
#   sha256sum -c ../tests/golden/ft_churn_traces.sha256
#
# A change that moves one of these timelines on purpose updates the digest
# file in the same commit.
set -e
FUZZ=${1:?usage: ft_churn_traces.sh <path to olb_fuzz>}
run() {
  "$FUZZ" --repro "$2" --trace "$1.ndjson" > /dev/null
}
run btd_fault7 "strategy=BTD peers=16 dmax=3 workload=1 seed=7 fault=7 sched=0"
run td_fault5 "strategy=TD peers=16 dmax=3 workload=2 seed=11 fault=5 sched=0"
run rws_fault7 "strategy=RWS peers=12 dmax=3 workload=1 seed=5 fault=7 sched=0"
run ahmw_fault7 "strategy=AHMW peers=13 dmax=3 workload=2 seed=3 fault=7 sched=0"
run btd_churn3 "strategy=BTD peers=18 dmax=3 workload=1 seed=21 fault=0 sched=0 churn=3"
run tr_churn2 "strategy=TR peers=18 dmax=1 workload=2 seed=90919 fault=0 sched=123334 churn=2"
run tr_churn3 "strategy=TR peers=18 dmax=1 workload=1 seed=485546 fault=0 sched=694894 churn=3"
run tr_churn5 "strategy=TR peers=9 dmax=5 workload=2 seed=663200 fault=0 sched=0 churn=5"
