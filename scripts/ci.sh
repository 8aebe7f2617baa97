#!/bin/sh
# Tier-1 CI: build, full test suite, then two smoke runs of the hardened
# execution path — a clean sanitized campaign (must report zero findings)
# and a seeded fault-injection campaign (must complete end-to-end via the
# fallback ladder with every row validating).
set -eu
cd "$(dirname "$0")/.."

echo "== build =="
dune build

echo "== tests =="
dune runtest

CLI=_build/default/bin/ozo_cli.exe

echo "== sanitizer: clean proxy =="
"$CLI" sanitize xsbench --small

echo "== injection smoke campaign =="
"$CLI" campaign xsbench --small --inject corrupt-load --seed 5
"$CLI" campaign rsbench --small --inject skip-barrier --seed 11

echo "== domain-parallel engine: bit-identity suite =="
# sequential vs domain-sharded launches must agree byte-for-byte:
# per-team counters, totals, faults (kind + site + team), injection
# sites, sanitizer verdicts and campaign CSV rows
dune exec test/test_main.exe -- test domains

echo "== domain-parallel campaign smoke =="
# the full supervised campaign path sharded over 4 domains; every row
# must validate, and the CSV must match a sequential campaign
# byte-for-byte once the trailing domains/cache/latency columns are
# stripped (the last three fields of every row)
"$CLI" campaign xsbench --small --domains 4 > _build/ci_campaign_d4.out
"$CLI" campaign xsbench --small > _build/ci_campaign_d1.out
sed -n '/^proxy,build/,$p' _build/ci_campaign_d4.out | sed 's/\(,[^,]*\)\{3\}$//' > _build/ci_d4.csv
sed -n '/^proxy,build/,$p' _build/ci_campaign_d1.out | sed 's/\(,[^,]*\)\{3\}$//' > _build/ci_d1.csv
diff _build/ci_d1.csv _build/ci_d4.csv || {
  echo "FAIL: campaign CSV differs between --domains 1 and --domains 4"; exit 1; }
echo "domain-parallel campaign OK: CSV identical to sequential"

echo "== threaded-code executor: bit-identity suite =="
# IR-interpreter vs threaded-code launches must agree byte-for-byte:
# counters, faults, injection sites, sanitizer verdicts, campaign CSV
# rows, compile-key separation and the parallel-copy property suite
dune exec test/test_main.exe -- test vm

echo "== threaded-code campaign smoke =="
# the full supervised campaign on the vm execution path (every proxy
# build row); the CSV must match the ir-path campaign byte-for-byte once
# the trailing exec/domains/cache/latency columns are stripped (the last
# four fields of every row — the only column allowed to differ is exec)
"$CLI" campaign xsbench --small --exec vm > _build/ci_campaign_vm.out
sed -n '/^proxy,build/,$p' _build/ci_campaign_vm.out | sed 's/\(,[^,]*\)\{4\}$//' > _build/ci_vm.csv
sed -n '/^proxy,build/,$p' _build/ci_campaign_d1.out | sed 's/\(,[^,]*\)\{4\}$//' > _build/ci_ir.csv
diff _build/ci_ir.csv _build/ci_vm.csv || {
  echo "FAIL: campaign CSV differs between --exec ir and --exec vm"; exit 1; }
grep -q ",vm," _build/ci_campaign_vm.out || {
  echo "FAIL: --exec vm campaign rows do not record the vm path"; exit 1; }
echo "threaded-code campaign OK: CSV identical to the IR interpreter"

echo "== threaded-code: ozo vm smoke =="
# the VM-form dump must expose per-function shape + the executor plan,
# and the spill-free kernel must actually be on the compiled plan
plan=$("$CLI" vm xsbench --small --csv | awk -F, '$2 == "New RT" { print $12 }')
[ "$plan" = "vm" ] || {
  echo "FAIL: ozo vm reports plan '${plan:-}' for xsbench (want vm)"; exit 1; }
echo "xsbench kernel on the threaded-code plan"

echo "== analysis manager: differential invalidation =="
# every pass x config x proxy with after-each-pass coherence checking,
# plus the cached-vs-uncached bit-identical IR pin
dune exec test/test_main.exe -- test analysis

echo "== analysis cache smoke =="
# --profile prints "analysis cache: N hits, ..."; require a nonzero hit
# count so a silently-disabled cache fails CI
hits=$("$CLI" run xsbench --small --profile | sed -n 's/^analysis cache: \([0-9]*\) hits.*/\1/p')
[ -n "$hits" ] && [ "$hits" -gt 0 ] || {
  echo "FAIL: analysis cache reported no hits (got '${hits:-}')"; exit 1; }
echo "analysis cache hits: $hits"

echo "== backend: differential spill run =="
# a tiny register budget must force spills AND still validate (spilled
# execution is bit-identical to the unlimited-register run); plus the
# occupancy/resource suite against hand-computed A100 limits
dune exec test/test_main.exe -- test backend

echo "== backend: ozo regs smoke =="
# the resource table must expose regs/smem/occupancy/spills per build,
# and a spill-forcing budget must report nonzero spill traffic
"$CLI" regs xsbench --small --csv | grep -q "spill_loads" || {
  echo "FAIL: ozo regs --csv missing spill columns"; exit 1; }
spilled=$("$CLI" regs xsbench --small --csv --max-regs 8 \
  | awk -F, '$2 == "New RT" { print $11 }')
[ -n "$spilled" ] && [ "$spilled" -gt 0 ] || {
  echo "FAIL: ozo regs --max-regs 8 reported no spilled registers (got '${spilled:-}')"; exit 1; }
echo "spilled registers at budget 8: $spilled"

echo "== trace smoke =="
# emit a Chrome trace and re-validate it: schema, pass-span nesting under
# the compile span, phase spans under the launch span, hot-spot events
"$CLI" trace testsnap --small --out _build/trace_smoke.json --check

echo "== fuzz: differential smoke (fixed seeds) =="
# 25 generated kernels through O0 / full / spilled-regalloc; any variant
# disagreement or fault is a differential failure and exits non-zero
"$CLI" fuzz --seeds 25 --seed 1 --out _build/fuzz_smoke.ir

echo "== fuzz: planted miscompile must be caught and shrunk =="
if "$CLI" fuzz --seeds 1 --seed 1 --plant flip-add --out _build/fuzz_plant.ir; then
  echo "FAIL: planted miscompile went undetected"; exit 1
fi
[ -s _build/fuzz_plant.ir ] || {
  echo "FAIL: no minimized repro written for the planted miscompile"; exit 1; }
echo "planted miscompile caught; repro at _build/fuzz_plant.ir"

echo "== campaign: kill + resume from journal =="
# abort after 3 fresh rows (simulated crash), resume from the journal,
# and require the resumed CSV to match an uninterrupted run byte for byte
# once the latency_us column (wall-clock time, the last field of every
# row) is masked; the cache column and every result column are compared
JOURNAL=_build/ci_journal.jsonl
rm -f "$JOURNAL"
if "$CLI" campaign xsbench --small --journal "$JOURNAL" --abort-after 3 \
     > _build/ci_campaign_killed.out 2>&1; then
  echo "FAIL: --abort-after did not abort the campaign"; exit 1
fi
"$CLI" campaign xsbench --small --journal "$JOURNAL" --resume \
  > _build/ci_campaign_resumed.out
"$CLI" campaign xsbench --small > _build/ci_campaign_full.out
sed -n '/^proxy,build/,$p' _build/ci_campaign_resumed.out | sed 's/,[^,]*$//' > _build/ci_resumed.csv
sed -n '/^proxy,build/,$p' _build/ci_campaign_full.out | sed 's/,[^,]*$//' > _build/ci_full.csv
diff _build/ci_full.csv _build/ci_resumed.csv || {
  echo "FAIL: resumed campaign CSV differs from uninterrupted run"; exit 1; }
echo "resume OK: CSV identical but for latency after kill at row 3"

echo "== serving tier: content-addressed cache + batched service =="
# a 2-domain service over a duplicated request list (two passes via
# --repeat 2) must serve every second-pass compile from cache (>= 50%
# hit rate), and its CSV must be byte-identical to the same rows drained
# as a campaign modulo the trailing domains/cache/latency columns
REQS=_build/ci_requests.txt
: > "$REQS"
for b in old-rt new-rt-nightly new-rt-no-assumptions new-rt cuda; do
  echo "xsbench $b" >> "$REQS"
done
"$CLI" serve --requests "$REQS" --small --repeat 2 --domains 2 \
  > _build/ci_serve.out
hitrate=$(sed -n 's/.*(\([0-9]*\)% hit rate).*/\1/p' _build/ci_serve.out)
[ -n "$hitrate" ] && [ "$hitrate" -ge 50 ] || {
  echo "FAIL: serve hit rate below 50% (got '${hitrate:-}')"; exit 1; }
"$CLI" campaign xsbench --small --repeat 2 > _build/ci_campaign_r2.out
sed -n '/^proxy,build/,$p' _build/ci_serve.out | sed '/^serve:/d' \
  | sed 's/\(,[^,]*\)\{3\}$//' > _build/ci_serve.csv
sed -n '/^proxy,build/,$p' _build/ci_campaign_r2.out \
  | sed 's/\(,[^,]*\)\{3\}$//' > _build/ci_seq.csv
diff _build/ci_seq.csv _build/ci_serve.csv || {
  echo "FAIL: served CSV differs from the sequential campaign"; exit 1; }
echo "serve OK: ${hitrate}% cache hit rate, CSV identical to the campaign"

echo "== serving tier: warm-cache bench =="
# two passes over every proxy x build against one cache: the warm pass
# must recompile nothing (100% hit rate) and reproduce the cold rows
# bit-identically; prints cold vs warm launches/sec + latency percentiles
"$CLI" bench-service --small

echo "== portability: per-machine bit-identity + tuner suites =="
# per machine descriptor (incl. the 64-wide mi250): counters, checks and
# campaign CSV bytes identical across --domains {1,4} x --exec {ir,vm};
# plus the autotuner/matrix determinism and soundness suites
dune exec test/test_main.exe -- test portability
dune exec test/test_main.exe -- test tune

echo "== machines smoke =="
# every descriptor the matrix sweeps must be listed, with its wavefront
"$CLI" machines | grep -q "^mi250 *64" || {
  echo "FAIL: ozo machines does not list the 64-wide mi250"; exit 1; }

echo "== autotuner determinism smoke =="
# two identical searches must emit byte-identical candidate CSVs, and
# exactly one candidate row must be marked chosen
"$CLI" tune xsbench --small --machine mi250 --csv > _build/ci_tune_1.csv
"$CLI" tune xsbench --small --machine mi250 --csv > _build/ci_tune_2.csv
diff _build/ci_tune_1.csv _build/ci_tune_2.csv || {
  echo "FAIL: ozo tune is not deterministic"; exit 1; }
chosen=$(grep -c ",yes$" _build/ci_tune_1.csv || true)
[ "$chosen" -eq 1 ] || {
  echo "FAIL: expected exactly 1 chosen candidate, got '${chosen:-}'"; exit 1; }
echo "tuner deterministic; 1 chosen shape"

echo "== 64-wide campaign smoke =="
# a full supervised campaign on the 64-wide descriptor: every row must
# validate and record the machine column
"$CLI" campaign xsbench --small --machine mi250 > _build/ci_campaign_mi250.out
grep -q ",mi250," _build/ci_campaign_mi250.out || {
  echo "FAIL: --machine mi250 campaign rows do not record the machine"; exit 1; }
echo "64-wide campaign OK"

echo "== cross-machine matrix determinism =="
# the matrix CSV (rel-perf + app-efficiency per proxy x build x machine)
# must be byte-identical across two runs
"$CLI" matrix --small --proxy xsbench --machines vgpu,mi250 --csv \
  > _build/ci_matrix_1.csv
"$CLI" matrix --small --proxy xsbench --machines vgpu,mi250 --csv \
  > _build/ci_matrix_2.csv
diff _build/ci_matrix_1.csv _build/ci_matrix_2.csv || {
  echo "FAIL: ozo matrix CSV differs between runs"; exit 1; }
echo "matrix OK: CSV deterministic"

echo "== perf micro-suite (smoke) =="
# under a wall-clock deadline: a wedged benchmark fails CI instead of
# hanging it
timeout 600 scripts/bench.sh --smoke

echo "== backend allocation ceiling =="
# deterministic allocation gate on the late lowering of every small
# proxy: the busy-map register allocator keeps backend/lower near 4 MB
# per iteration, where the sorted free list it replaced cost about 36 MB
alloc=$(awk '/"name": "backend\/lower"/ { f = 1 }
  f && /alloc_bytes_per_iter/ {
    sub(/.*"alloc_bytes_per_iter": */, ""); sub(/[^0-9].*/, ""); print; exit }' \
  bench/out/BENCH_engine.json)
[ -n "$alloc" ] && [ "$alloc" -le 12000000 ] || {
  echo "FAIL: backend/lower allocates ${alloc:-?} bytes/iter (ceiling 12000000)"; exit 1; }
echo "backend/lower: $alloc bytes/iter (ceiling 12000000)"

echo "CI OK"
