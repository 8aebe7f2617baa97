(* Perf-regression harness for the SIMT engine.

   Two tiers:

   - a pure-engine micro-suite: small IR kernels built directly with
     [Ozo_ir.Builder] and launched on a [Device], bypassing the compile
     pipeline, so the numbers isolate interpreter throughput (ALU issue
     rate, memory path, broadcast loads, divergence/strand churn);
   - end-to-end figure regeneration: the exact workload of
     `bench/main.exe csv` (5 proxies x 5 build rows through compile +
     simulate + validate), which is what every reproduction sweep pays.

   Output is machine-readable JSON (see BENCH_engine.json at the repo
   root for the tracked trajectory): per benchmark wall time, engine
   issue throughput (warp instruction issues / second) and allocation
   rate via [Gc.allocated_bytes]. The simulated *results* of every
   benchmark are invariant by construction — optimizations to the engine
   must never change charged cycles — so the suite doubles as a smoke
   check that the hot path still runs.

   Usage:
     perfbench.exe [--smoke] [-o FILE.json]

   --smoke runs 1 iteration of everything (CI bit-rot guard, seconds);
   the default runs enough iterations for stable numbers. *)

open Ozo_ir.Types
module B = Ozo_ir.Builder
module Device = Ozo_vgpu.Device
module Engine = Ozo_vgpu.Engine
module E = Ozo_harness.Experiments
module Registry = Ozo_proxies.Registry
module Trace = Ozo_obs.Trace

(* --- micro-suite kernels ---------------------------------------------- *)

let fail_launch e = Fmt.failwith "perfbench kernel faulted: %a" Device.pp_error e

(* Tight ALU loop: int + float arithmetic per lane, local accumulators.
   Dominated by instruction issue + operand evaluation. *)
let alu_kernel iters =
  let b = B.create "perf_alu" in
  (match B.begin_func b ~name:"k" ~kernel:true ~params:[ I64 ] ~ret:None () with
  | [ out ] ->
    B.set_block b "entry";
    let tid = B.thread_id b in
    let acc = B.alloca b 8 and facc = B.alloca b 8 in
    B.store b I64 (B.i64 1) acc;
    B.store b F64 (B.f64 1.5) facc;
    ignore
      (B.for_loop b ~lo:(B.i64 0) ~hi:(B.i64 iters) ~step:(B.i64 1) ~body:(fun iv ->
           let v = B.load b I64 acc in
           let v = B.add b (B.mul b v (B.i64 3)) (B.xor b iv tid) in
           let v = B.and_ b v (B.i64 0xFFFFFF) in
           B.store b I64 v acc;
           let f = B.load b F64 facc in
           let f = B.fadd b (B.fmul b f (B.f64 1.000001)) (B.f64 0.5) in
           B.store b F64 f facc));
    let v = B.load b I64 acc in
    B.store b I64 v (B.ptradd b out (B.mul b tid (B.i64 8)));
    B.ret b None
  | _ -> assert false);
  ignore (B.end_func b);
  B.finish b

(* Streaming global-memory loop: coalesced per-lane loads + stores. *)
let mem_kernel n =
  let b = B.create "perf_mem" in
  (match
     B.begin_func b ~name:"k" ~kernel:true ~params:[ I64; I64; I64 ] ~ret:None ()
   with
  | [ out; data; hi ] ->
    B.set_block b "entry";
    let tid = B.thread_id b in
    let bdim = B.block_dim b in
    let acc = B.alloca b 8 in
    B.store b F64 (B.f64 0.0) acc;
    ignore
      (B.for_loop b ~lo:tid ~hi ~step:bdim ~body:(fun iv ->
           let v = B.load b F64 (B.ptradd b data (B.mul b iv (B.i64 8))) in
           let a = B.load b F64 acc in
           B.store b F64 (B.fadd b a (B.fmul b v (B.f64 1.5))) acc));
    let a = B.load b F64 acc in
    B.store b F64 a (B.ptradd b out (B.mul b tid (B.i64 8)));
    B.ret b None
  | _ -> assert false);
  ignore (B.end_func b);
  ignore n;
  B.finish b

(* Uniform-broadcast loop: every lane loads the same address and feeds the
   value to special-function units — the uniform-strand scalarization
   showcase. *)
let broadcast_kernel iters =
  let b = B.create "perf_bcast" in
  (match B.begin_func b ~name:"k" ~kernel:true ~params:[ I64; I64 ] ~ret:None () with
  | [ out; cfg ] ->
    B.set_block b "entry";
    let tid = B.thread_id b in
    let acc = B.alloca b 8 in
    B.store b F64 (B.f64 0.0) acc;
    ignore
      (B.for_loop b ~lo:(B.i64 0) ~hi:(B.i64 iters) ~step:(B.i64 1) ~body:(fun _ ->
           let s = B.load b F64 cfg in
           let r = B.unop b Fsqrt s in
           let r = B.fadd b r (B.unop b Fsin s) in
           let a = B.load b F64 acc in
           B.store b F64 (B.fadd b a r) acc));
    let a = B.load b F64 acc in
    B.store b F64 a (B.ptradd b out (B.mul b tid (B.i64 8)));
    B.ret b None
  | _ -> assert false);
  ignore (B.end_func b);
  B.finish b

(* Divergent loop: the warp splits and rejoins on every iteration —
   strand creation/join churn through the scheduler queue. *)
let diverge_kernel iters =
  let b = B.create "perf_div" in
  (match B.begin_func b ~name:"k" ~kernel:true ~params:[ I64 ] ~ret:None () with
  | [ out ] ->
    B.set_block b "entry";
    let tid = B.thread_id b in
    let acc = B.alloca b 8 in
    B.store b I64 (B.i64 0) acc;
    ignore
      (B.for_loop b ~lo:(B.i64 0) ~hi:(B.i64 iters) ~step:(B.i64 1) ~body:(fun iv ->
           let par = B.and_ b (B.add b tid iv) (B.i64 1) in
           let c = B.icmp b Eq par (B.i64 0) in
           B.if_then_else b c
             ~then_:(fun () ->
               let v = B.load b I64 acc in
               B.store b I64 (B.add b v (B.i64 1)) acc)
             ~else_:(fun () ->
               let v = B.load b I64 acc in
               B.store b I64 (B.add b v (B.i64 2)) acc)));
    let v = B.load b I64 acc in
    B.store b I64 v (B.ptradd b out (B.mul b tid (B.i64 8)));
    B.ret b None
  | _ -> assert false);
  ignore (B.end_func b);
  B.finish b

(* Long integer dependency chain per iteration with one load/store pair:
   execute-bound on the int ALU, the threaded-code executor's best case.
   (The per-op dispatch — decode-record match, operand eval — is what
   the compiled closures elide; memory ops cost the same on both.) *)
let intchain_kernel iters =
  let b = B.create "perf_vmchain" in
  (match B.begin_func b ~name:"k" ~kernel:true ~params:[ I64 ] ~ret:None () with
  | [ out ] ->
    B.set_block b "entry";
    let tid = B.thread_id b in
    let acc = B.alloca b 8 in
    B.store b I64 (B.i64 7) acc;
    ignore
      (B.for_loop b ~lo:(B.i64 0) ~hi:(B.i64 iters) ~step:(B.i64 1) ~body:(fun iv ->
           let v = ref (B.load b I64 acc) in
           for _ = 1 to 8 do
             v := B.add b (B.mul b !v (B.i64 3)) (B.xor b !v tid);
             v := B.and_ b (B.add b !v iv) (B.i64 0xFFFFFFF)
           done;
           B.store b I64 !v acc));
    let v = B.load b I64 acc in
    B.store b I64 v (B.ptradd b out (B.mul b tid (B.i64 8)));
    B.ret b None
  | _ -> assert false);
  ignore (B.end_func b);
  B.finish b

(* --- measurement ------------------------------------------------------- *)

type sample = {
  s_name : string;
  s_iters : int;
  s_wall_s : float;            (* total wall seconds over all iterations *)
  s_issues : int;              (* engine warp-instruction issues per iteration *)
  s_alloc_bytes : float;       (* OCaml heap bytes allocated per iteration *)
}

let time_run ~iters ~name (f : unit -> int) : sample =
  ignore (f ()) (* warm-up: fills per-function caches, faults early *)
  ;
  let a0 = Gc.allocated_bytes () in
  let t0 = Unix.gettimeofday () in
  let issues = ref 0 in
  for _ = 1 to iters do
    issues := f ()
  done;
  let wall = Unix.gettimeofday () -. t0 in
  let alloc = (Gc.allocated_bytes () -. a0) /. float_of_int iters in
  { s_name = name; s_iters = iters; s_wall_s = wall; s_issues = !issues;
    s_alloc_bytes = alloc }

(* Launch a micro kernel once and return its issue count. A fresh device
   per call keeps runs independent; module decode caches are per-launch,
   which is exactly what the figure harness pays too. *)
let micro ?(opts = Device.Launch_opts.default) ~teams ~threads ~setup m args =
  let dev = Device.create m in
  let args = setup dev @ args in
  match Device.launch ~opts dev ~teams ~threads args with
  | Error e -> fail_launch e
  | Ok r -> r.Engine.r_total.Ozo_vgpu.Counters.warp_instructions

let micro_suite ~iters =
  let out_buf bytes dev = [ Engine.Ai (Device.ptr (Device.alloc dev bytes)) ] in
  let threads = 128 in
  let alu =
    let m = alu_kernel 2000 in
    time_run ~iters ~name:"micro/alu-loop" (fun () ->
        micro ~teams:2 ~threads ~setup:(out_buf (threads * 8)) m [])
  in
  let mem =
    let n = 16384 in
    let m = mem_kernel n in
    time_run ~iters ~name:"micro/mem-stream" (fun () ->
        micro ~teams:2 ~threads
          ~setup:(fun dev ->
            let data = Device.alloc dev (n * 8) in
            Device.write_f64_array dev data
              (Array.init n (fun i -> float_of_int (i land 255)));
            let out = Device.alloc dev (threads * 8) in
            [ Engine.Ai (Device.ptr out); Ai (Device.ptr data) ])
          m [ Engine.Ai n ])
  in
  let bcast =
    let m = broadcast_kernel 1500 in
    time_run ~iters ~name:"micro/uniform-broadcast" (fun () ->
        micro ~teams:2 ~threads
          ~setup:(fun dev ->
            let cfg = Device.alloc dev 8 in
            Device.write_f64s dev cfg [ 2.25 ];
            let out = Device.alloc dev (threads * 8) in
            [ Engine.Ai (Device.ptr out); Ai (Device.ptr cfg) ])
          m [])
  in
  let dv =
    let m = diverge_kernel 600 in
    time_run ~iters ~name:"micro/divergence-churn" (fun () ->
        micro ~teams:2 ~threads ~setup:(out_buf (threads * 8)) m [])
  in
  (* Same ALU workload with phase spans + per-block hot-spot profiling on
     (fresh ctx per launch). Against "micro/alu-loop" this bounds the
     tracing-on cost; the untraced samples above ARE the tracing-off
     check — they go through the instrumented launch path with
     [Launch_opts.default] and are tracked in BENCH_engine.json. *)
  let alu_traced =
    let m = alu_kernel 2000 in
    time_run ~iters ~name:"micro/alu-loop-traced" (fun () ->
        let opts =
          { Device.Launch_opts.default with
            Device.Launch_opts.trace = Trace.make (); profile = true }
        in
        micro ~opts ~teams:2 ~threads ~setup:(out_buf (threads * 8)) m [])
  in
  [ alu; mem; bcast; dv; alu_traced ]

(* Compile-time suite: the full optimization pipeline over every small
   proxy with the analysis cache on vs off. The linked (pre-pipeline)
   modules are built once outside the timer, so the two samples isolate
   [Pipeline.run] itself — the delta is what the analysis manager saves.
   [s_issues] reports analysis queries (hits + misses) per iteration. *)
let pipeline_suite ~iters =
  let module Pipeline = Ozo_opt.Pipeline in
  let module Analysis = Ozo_opt.Analysis in
  let module C = Ozo_core.Codesign in
  let module Proxy = Ozo_proxies.Proxy in
  let linked =
    List.map
      (fun p ->
        let b = E.new_rt_for p in
        let k = Proxy.kernel_for p b.C.b_abi in
        let app = Ozo_frontend.Lower.lower ~abi:b.C.b_abi k in
        match b.C.b_rt with
        | None -> app
        | Some rt -> Ozo_ir.Linker.link app (Ozo_runtime.Runtime.build rt))
      (Registry.all_small ())
  in
  let run_all ~caching () =
    List.fold_left
      (fun acc m ->
        let am = Analysis.create ~caching () in
        ignore (Pipeline.run ~am Pipeline.full m);
        let st = Analysis.stats am in
        acc + st.Analysis.st_hits + st.Analysis.st_misses)
      0 linked
  in
  [ time_run ~iters ~name:"pipeline/full-cached" (run_all ~caching:true);
    time_run ~iters ~name:"pipeline/full-uncached" (run_all ~caching:false) ]

(* Backend suite: the late lowering stage (register allocation, SSA
   destruction to VM form, SMem layout, occupancy) over every small
   proxy's optimized module — once at the default budget (the cost every
   compile now pays) and once at a spill-forcing budget (adds the IR
   spill rewrite + re-verification-sized work). Modules are optimized
   outside the timer, so the samples isolate [Backend.run].
   [s_issues] reports VM instructions emitted per iteration. *)
let backend_suite ~iters =
  let module Pipeline = Ozo_opt.Pipeline in
  let module C = Ozo_core.Codesign in
  let module Proxy = Ozo_proxies.Proxy in
  let module Backend = Ozo_backend.Lower in
  let module Machine = Ozo_backend.Machine in
  let module Vm = Ozo_backend.Vm in
  let optimized =
    List.map
      (fun p ->
        let b = E.new_rt_for p in
        let k = Proxy.kernel_for p b.C.b_abi in
        let app = Ozo_frontend.Lower.lower ~abi:b.C.b_abi k in
        let linked =
          match b.C.b_rt with
          | None -> app
          | Some rt -> Ozo_ir.Linker.link app (Ozo_runtime.Runtime.build rt)
        in
        (k.Ozo_frontend.Ast.k_name, Pipeline.run Pipeline.full linked))
      (Registry.all_small ())
  in
  let vm_insts (s : Backend.summary) =
    List.fold_left
      (fun acc vf ->
        List.fold_left
          (fun acc vb -> acc + List.length vb.Vm.vb_insts)
          acc vf.Vm.vf_blocks)
      0 s.Backend.lw_program.Vm.pr_funcs
  in
  let lower_all machine () =
    List.fold_left
      (fun acc (kernel, m) -> acc + vm_insts (Backend.run ~machine m ~kernel))
      0 optimized
  in
  [ time_run ~iters ~name:"backend/lower" (lower_all Machine.vgpu);
    time_run ~iters ~name:"backend/lower-spill"
      (lower_all (Machine.with_reg_budget 8 Machine.vgpu)) ]

(* Threaded-code executor suite: the same lowered module and register
   plan launched on both executors, so each ir/vm pair isolates pure
   dispatch cost. Counters are bit-identical by contract — [s_issues]
   must agree within a pair (asserted) — and the wall-clock ratio is the
   speedup BENCH_engine.json tracks. *)
let vm_suite ~iters =
  let module Backend = Ozo_backend.Lower in
  let module Machine = Ozo_backend.Machine in
  let threads = 128 in
  let out_buf bytes dev = [ Engine.Ai (Device.ptr (Device.alloc dev bytes)) ] in
  let pair name m =
    let lower = Backend.run ~machine:Machine.vgpu m ~kernel:"k" in
    let low = lower.Backend.lw_module in
    let plan = lower.Backend.lw_plan in
    let go exec () =
      let dev = Device.create ~exec ~plan low in
      let args = out_buf (threads * 8) dev in
      match Device.launch dev ~teams:2 ~threads args with
      | Error e -> fail_launch e
      | Ok r -> r.Engine.r_total.Ozo_vgpu.Counters.warp_instructions
    in
    let ir =
      time_run ~iters ~name:(Fmt.str "vm/%s-ir" name) (go Engine.Exec_ir)
    in
    let vm =
      time_run ~iters ~name:(Fmt.str "vm/%s-vm" name) (go Engine.Exec_vm)
    in
    if ir.s_issues <> vm.s_issues then
      Fmt.failwith "vm/%s: executors disagree (%d vs %d issues)" name
        ir.s_issues vm.s_issues;
    [ ir; vm ]
  in
  pair "int-chain" (intchain_kernel 1500)
  @ pair "alu-loop" (alu_kernel 2000)
  @ pair "divergence" (diverge_kernel 600)

(* End-to-end: the `bench/main.exe csv` workload (all figures' raw rows).
   [domains] shards each launch's team loop over OCaml domains; counters
   (and therefore [s_issues]) are bit-identical at every value. *)
let e2e_csv ?(domains = 1) ~small () =
  let pool = if small then Registry.all_small () else Registry.all () in
  List.fold_left
    (fun acc p ->
      List.fold_left
        (fun acc b ->
          let m = E.measure_request p (E.request_for ~domains p b) in
          acc + m.E.r_counters.Ozo_vgpu.Counters.warp_instructions)
        acc (E.builds_for p))
    0 pool

(* Serving-tier suite: the full proxy x build queue drained through the
   batched service — cold (a fresh compile cache per iteration, every
   request compiles) vs warm (a cache pre-filled outside the timer, every
   request served from cache). The delta is the compile pipeline + backend
   cost the content-addressed cache elides; served results are
   bit-identical either way, so [s_issues] (total warp instructions over
   all served launches) must agree between the two samples. *)
let serve_suite ~iters =
  let module Service = Ozo_serve.Service in
  let module Cache = Ozo_serve.Cache in
  let queue =
    List.concat_map
      (fun p ->
        List.map (fun b -> (p.Ozo_proxies.Proxy.p_name, b)) E.build_names)
      (Registry.all_small ())
  in
  let opts = { Service.default with Service.sv_small = true } in
  let issues ms =
    List.fold_left
      (fun acc m -> acc + m.E.r_counters.Ozo_vgpu.Counters.warp_instructions)
      0 ms
  in
  let cold =
    time_run ~iters ~name:"serve/cold" (fun () ->
        issues (fst (Service.run opts queue)))
  in
  let warm_cache = Cache.create () in
  ignore (Service.run ~cache:warm_cache opts queue);
  let warm =
    time_run ~iters ~name:"serve/warm" (fun () ->
        issues (fst (Service.run ~cache:warm_cache opts queue)))
  in
  [ cold; warm ]

(* Autotuner suite: one model-only launch-shape search (compile + probe
   + static scoring), one search with top-3 measured refinement (adds
   three real launches through the same compile), and the small
   cross-machine matrix. [s_issues] reports candidates scored for the
   searches and total warp instructions for the matrix; both are
   deterministic, so the issue counts double as a drift check. *)
let tune_suite ~iters =
  let module Tune = Ozo_tune.Tune in
  let module Matrix = Ozo_tune.Matrix in
  let module Machine = Ozo_backend.Machine in
  let p = Registry.find_exn ~small:true "xsbench" in
  let search ~measure_top () =
    let v =
      Tune.search ~measure_top ~machine:Machine.mi250 p ~build_name:"new-rt"
    in
    List.length v.Tune.tv_candidates
  in
  let matrix () =
    let t =
      Matrix.run ~machines:[ "vgpu"; "mi250" ] ~proxies:[ "xsbench"; "gridmini" ]
        { Ozo_serve.Service.default with Ozo_serve.Service.sv_small = true }
    in
    List.fold_left
      (fun acc c ->
        acc
        + c.Matrix.x_m.E.r_counters.Ozo_vgpu.Counters.warp_instructions)
      0 t.Matrix.mx_cells
  in
  [ time_run ~iters ~name:"tune/search-model" (search ~measure_top:0);
    time_run ~iters ~name:"tune/search-measured" (search ~measure_top:3);
    time_run ~iters ~name:"tune/matrix-small" matrix ]

(* Domain-scaling curve over the end-to-end workload. The speedup these
   samples record is bounded by the machine's core count — on a 1-core
   container every count collapses to time-sliced sequential speed and
   the curve documents the (small) sharding overhead instead. Alloc per
   iteration is the schedule-independent regression signal. *)
let par_suite ~iters =
  List.map
    (fun d ->
      time_run ~iters
        ~name:(Fmt.str "par/e2e-csv-full-d%d" d)
        (e2e_csv ~domains:d ~small:false))
    [ 1; 2; 4; 8 ]

(* --- JSON output -------------------------------------------------------- *)

let pp_sample ppf s =
  let issues_per_s =
    if s.s_wall_s > 0.0 then
      float_of_int (s.s_issues * s.s_iters) /. s.s_wall_s
    else 0.0
  in
  Fmt.pf ppf
    {|    { "name": %S, "iters": %d, "wall_s": %.6f, "per_iter_s": %.6f,
      "issues_per_iter": %d, "issues_per_s": %.0f, "alloc_bytes_per_iter": %.0f }|}
    s.s_name s.s_iters s.s_wall_s
    (s.s_wall_s /. float_of_int s.s_iters)
    s.s_issues issues_per_s s.s_alloc_bytes

let emit_json ~mode ~path samples =
  let oc = open_out path in
  let ppf = Format.formatter_of_out_channel oc in
  Fmt.pf ppf {|{
  "schema": "ozo-perfbench/1",
  "mode": %S,
  "results": [
%a
  ]
}
|}
    mode
    (Fmt.list ~sep:(Fmt.any ",@\n") pp_sample)
    samples;
  Format.pp_print_flush ppf ();
  close_out oc

let () =
  let smoke = ref false and out = ref "BENCH_engine.json" in
  let rec parse = function
    | [] -> ()
    | "--smoke" :: rest ->
      smoke := true;
      parse rest
    | "-o" :: path :: rest ->
      out := path;
      parse rest
    | a :: _ -> Fmt.failwith "perfbench: unknown argument %s" a
  in
  parse (List.tl (Array.to_list Sys.argv));
  let mode = if !smoke then "smoke" else "full" in
  let micro_iters = if !smoke then 1 else 8 in
  Fmt.pr "perfbench (%s mode)@." mode;
  let samples = micro_suite ~iters:micro_iters in
  let samples =
    samples @ pipeline_suite ~iters:(if !smoke then 1 else 10)
  in
  let samples = samples @ backend_suite ~iters:(if !smoke then 1 else 10) in
  let samples = samples @ vm_suite ~iters:(if !smoke then 1 else 8) in
  let e2e =
    if !smoke then
      [ time_run ~iters:1 ~name:"e2e/csv-small" (e2e_csv ~small:true) ]
    else
      [ time_run ~iters:3 ~name:"e2e/csv-small" (e2e_csv ~small:true);
        time_run ~iters:2 ~name:"e2e/csv-full" (e2e_csv ~small:false) ]
  in
  let samples = samples @ e2e in
  let samples = samples @ serve_suite ~iters:(if !smoke then 1 else 4) in
  let samples = samples @ tune_suite ~iters:(if !smoke then 1 else 4) in
  let samples = samples @ (if !smoke then [] else par_suite ~iters:2) in
  List.iter
    (fun s ->
      Fmt.pr "  %-26s %9.1f ms/iter  %10.0f issues/s  %12.0f B alloc/iter@."
        s.s_name
        (1000.0 *. s.s_wall_s /. float_of_int s.s_iters)
        (if s.s_wall_s > 0.0 then
           float_of_int (s.s_issues * s.s_iters) /. s.s_wall_s
         else 0.0)
        s.s_alloc_bytes)
    samples;
  (* tracing overhead summary: traced vs untraced ALU loop *)
  (let find n = List.find_opt (fun s -> s.s_name = n) samples in
   match (find "micro/alu-loop", find "micro/alu-loop-traced") with
   | Some off, Some on_ ->
     let per s = s.s_wall_s /. float_of_int s.s_iters in
     if per off > 0.0 then
       Fmt.pr "  tracing+profiling on: %+.1f%% vs untraced alu-loop@."
         (100.0 *. (per on_ -. per off) /. per off)
   | _ -> ());
  (* threaded-code executor summary: vm vs ir on the execute-bound chain *)
  (let find n = List.find_opt (fun s -> s.s_name = n) samples in
   match (find "vm/int-chain-ir", find "vm/int-chain-vm") with
   | Some ir, Some vm ->
     let per s = s.s_wall_s /. float_of_int s.s_iters in
     if per vm > 0.0 then
       Fmt.pr "  threaded-code executor: %.2fx vs IR interpreter on vm/int-chain@."
         (per ir /. per vm)
   | _ -> ());
  (* analysis-cache summary: cached vs uncached full pipeline *)
  (let find n = List.find_opt (fun s -> s.s_name = n) samples in
   match (find "pipeline/full-cached", find "pipeline/full-uncached") with
   | Some on_, Some off ->
     let per s = s.s_wall_s /. float_of_int s.s_iters in
     if per on_ > 0.0 then
       Fmt.pr "  analysis caching on: %.2fx compile-time vs uncached full pipeline@."
         (per off /. per on_)
   | _ -> ());
  (* serving-tier summary: warm vs cold queue drain *)
  (let find n = List.find_opt (fun s -> s.s_name = n) samples in
   match (find "serve/cold", find "serve/warm") with
   | Some cold, Some warm ->
     let per s = s.s_wall_s /. float_of_int s.s_iters in
     if per warm > 0.0 then
       Fmt.pr "  warm compile cache: %.2fx launches/sec vs cold service@."
         (per cold /. per warm)
   | _ -> ());
  (* autotuner summary: measured refinement cost over the model-only search *)
  (let find n = List.find_opt (fun s -> s.s_name = n) samples in
   match (find "tune/search-model", find "tune/search-measured") with
   | Some model, Some meas ->
     let per s = s.s_wall_s /. float_of_int s.s_iters in
     if per model > 0.0 then
       Fmt.pr "  measured refinement: %.2fx the model-only search@."
         (per meas /. per model)
   | _ -> ());
  (* domain-scaling summary: parallel vs sequential end-to-end sweep *)
  (let find n = List.find_opt (fun s -> s.s_name = n) samples in
   match (find "par/e2e-csv-full-d1", find "par/e2e-csv-full-d4") with
   | Some d1, Some d4 ->
     let per s = s.s_wall_s /. float_of_int s.s_iters in
     if per d4 > 0.0 then
       Fmt.pr "  4 domains: %.2fx e2e wall-clock vs 1 domain (%d core(s) available)@."
         (per d1 /. per d4)
         (Domain.recommended_domain_count ())
   | _ -> ());
  emit_json ~mode ~path:!out samples;
  Fmt.pr "wrote %s@." !out
