(* The repository benchmark: what users of this repo pay in host time to
   regenerate the paper's figures (a proxy x build sweep) or to be served
   requests (`ozo serve`).

   One process, one client, one OCaml domain: each workload is a closed
   loop of passes, and every pass hands a seeded permutation of the 25
   (proxy, build) requests to the serving tier's public entry point,
   [Ozo_serve.Service.run]. The program sees only the generated queue.

   Timed mode (--trace 0) reports the end-to-end metrics. Traced mode
   (--trace 1) interleaves untraced [Service.run] passes with a replay of
   the same requests through each layer's public entry point, timed from
   here, and reports the per-layer metrics. See NOTES.md for why each
   workload exists and which layer should move which metric.

   Measurement rules that keep the figures steady on a noisy host:
   - each figure covers seconds of work (several passes), never one pass;
   - throughput is the median over passes, not one aggregate;
   - every timed pass starts after [Gc.compact ()], from the same heap
     state; the GC parameters themselves are left as users run them.

   Correctness gate: every request's host differential check must pass
   with no fault and no fallback, the compile cache must miss on every
   sweep request and hit on every timed serve-repeat request, and the
   digest of each request's simulated results must be identical across
   set-up, passes, queue orders and the layer replay. *)

module S = Ozo_serve.Service
module Cache = Ozo_serve.Cache
module E = Ozo_harness.Experiments
module C = Ozo_core.Codesign
module Proxy = Ozo_proxies.Proxy
module Registry = Ozo_proxies.Registry
module Counters = Ozo_vgpu.Counters
module Backend = Ozo_backend.Lower

exception Bench_error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Bench_error s)) fmt
let now = Unix.gettimeofday

let median xs =
  match List.sort compare xs with
  | [] -> 0.0
  | s ->
    let a = Array.of_list s and n = List.length s in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let sum xs = List.fold_left ( +. ) 0.0 xs
let sumi xs = List.fold_left ( + ) 0 xs

(* ---- workloads --------------------------------------------------------- *)

type workload = {
  w_name : string;
  w_small : bool; (* reduced test-size proxies *)
  w_warm : bool; (* timed passes reuse the cache filled during set-up *)
  w_setups : int; (* set-up repetitions; setup_s is their median *)
  w_perms : int; (* permutations of the 25 requests per timed pass *)
}

let workloads =
  [ { w_name = "sweep-small"; w_small = true; w_warm = false; w_setups = 5; w_perms = 1 };
    (* not in BENCHMARK.json: its medians drift with host memory contention
       by up to a quarter between blocks of runs (see NOTES.md), so it is
       run by hand for executor work rather than gated *)
    { w_name = "sweep-full"; w_small = false; w_warm = false; w_setups = 3; w_perms = 1 };
    (* hits are cheap: 4 permutations keep a pass near half a second, so
       the per-pass compaction stays a small share of the run *)
    { w_name = "serve-repeat"; w_small = true; w_warm = true; w_setups = 5; w_perms = 4 } ]

(* at least 25 requests per pass: a run of at least 4 passes has 100
   samples, so 10 lie beyond the p90 it reports *)
let min_passes = 4

let service_opts w = { S.default with S.sv_small = w.w_small; sv_domains = 1 }

let pool w = if w.w_small then Registry.all_small () else Registry.all ()

let pairs_of pool =
  Array.of_list
    (List.concat_map
       (fun p -> List.map (fun b -> (p.Proxy.p_name, b)) E.build_names)
       pool)

let shuffled rng (a : 'a array) : 'a list =
  let a = Array.copy a in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

let draw_queue w rng pairs = List.concat (List.init w.w_perms (fun _ -> shuffled rng pairs))

(* ---- host fingerprint -------------------------------------------------- *)

(* fixed integer work, no allocation: reads host speed, not program speed *)
let alu_loop () =
  let x = ref 1 in
  for i = 1 to 20_000_000 do
    x := (!x * 1103515245) + i land 0xffff
  done;
  Sys.opaque_identity !x

let alu_ms () =
  median
    (List.init 5 (fun _ ->
         let t0 = now () in
         ignore (alu_loop ());
         (now () -. t0) *. 1e3))

(* ---- correctness gate -------------------------------------------------- *)

type gate = {
  digests : (string * string, string) Hashtbl.t; (* (proxy, build) -> results *)
  cycles : (string * string, float) Hashtbl.t;
  mutable errors : string list;
}

let new_gate () =
  { digests = Hashtbl.create 32; cycles = Hashtbl.create 32; errors = [] }

let error g fmt = Printf.ksprintf (fun s -> g.errors <- s :: g.errors) fmt

(* every simulated result of one request: cycles, all counters, resources *)
let result_digest ~cycles ~regs ~smem ~spills (c : Counters.t) =
  Printf.sprintf "%h/%d/%d/%d/%d/%d/%d/%d/%d/%d/%d/%d/%d/%d/%d/%d/%d" cycles
    regs smem spills c.Counters.warp_instructions c.lane_instructions
    c.barriers c.aligned_barriers c.global_transactions c.shared_accesses
    c.local_accesses c.atomics c.mallocs c.calls c.divergent_branches c.cycles
    c.traps

let record g ~where key ~cycles digest =
  match Hashtbl.find_opt g.digests key with
  | Some d when d <> digest ->
    error g "%s: simulated results of %s/%s differ from an earlier run" where
      (fst key) (snd key)
  | Some _ -> ()
  | None ->
    Hashtbl.replace g.digests key digest;
    Hashtbl.replace g.cycles key cycles

let combined_digest g =
  Hashtbl.fold (fun (p, b) d acc -> (p ^ " " ^ b ^ " " ^ d) :: acc) g.digests []
  |> List.sort compare |> String.concat "\n" |> Digest.string |> Digest.to_hex

(* geometric mean over the proxies of simulated kernel cycles, New RT over
   CUDA: the paper's headline *)
let sim_overhead_x g =
  (* sorted, so the float sum runs in the same order whatever the queue *)
  let proxies = List.sort_uniq compare (Hashtbl.fold (fun (p, _) _ acc -> p :: acc) g.cycles []) in
  let logs =
    List.map
      (fun p ->
        match
          (Hashtbl.find_opt g.cycles (p, "new-rt"), Hashtbl.find_opt g.cycles (p, "cuda"))
        with
        | Some n, Some c when n > 0.0 && c > 0.0 -> log (n /. c)
        | _ -> fail "no New RT / CUDA cycles for %s" p)
      proxies
  in
  exp (sum logs /. float_of_int (List.length logs))

(* ---- one untraced pass through Service.run ----------------------------- *)

type pass = {
  ps_n : int;
  ps_ok : int;
  ps_wall_s : float; (* Service.run's own queue-drain wall time *)
  ps_alloc_b : float;
  ps_latency_ms : float list; (* per request, as measured by Service.run *)
  ps_minor : int;
  ps_major : int;
  ps_cache : Cache.stats; (* this pass's lookups *)
  ps_retries : int;
  ps_fallbacks : int;
}

(* [expect] is the cache disposition every row of this pass must have *)
let serve_pass g w ~where ~expect ?cache queue : pass =
  let st0 = Gc.quick_stat () in
  let a0 = Gc.allocated_bytes () in
  let rows, stats = S.run ?cache (service_opts w) queue in
  let a1 = Gc.allocated_bytes () in
  let st1 = Gc.quick_stat () in
  let ok = ref 0 in
  List.iter2
    (fun key (m : E.measurement) ->
      (match (m.E.r_check, m.E.r_fault, m.E.r_fallbacks) with
      | Ok (), None, [] -> incr ok
      | Error e, _, _ -> error g "%s: %s/%s failed its check: %s" where (fst key) (snd key) e
      | _ -> error g "%s: %s/%s faulted or fell back" where (fst key) (snd key));
      if m.E.r_cache_disp <> expect then
        error g "%s: %s/%s compile cache %s, expected %s" where (fst key)
          (snd key) m.E.r_cache_disp expect;
      record g ~where key ~cycles:m.E.r_cycles
        (result_digest ~cycles:m.E.r_cycles ~regs:m.E.r_regs ~smem:m.E.r_smem
           ~spills:m.E.r_spills m.E.r_counters))
    queue rows;
  { ps_n = List.length rows; ps_ok = !ok; ps_wall_s = stats.S.st_wall_us /. 1e6;
    ps_alloc_b = a1 -. a0;
    ps_latency_ms = List.map (fun m -> m.E.r_latency_us /. 1e3) rows;
    ps_minor = st1.Gc.minor_collections - st0.Gc.minor_collections;
    ps_major = st1.Gc.major_collections - st0.Gc.major_collections;
    ps_cache = stats.S.st_cache;
    ps_retries = sumi (List.map (fun m -> m.E.r_retries) rows);
    ps_fallbacks = sumi (List.map (fun m -> List.length m.E.r_fallbacks) rows) }

(* Everything before the first timed request: building the proxy
   registry and one untimed pass, which for serve-repeat is the cold fill
   of the compile cache it keeps. The sweeps drop that cache, so it adds
   nothing to the heap their timed passes start from. *)
let setup g w ~rng =
  Gc.compact ();
  let t0 = now () in
  let pairs = pairs_of (pool w) in
  let cache = Cache.create () in
  let _ : pass = serve_pass g w ~where:"set-up" ~expect:"miss" ~cache (shuffled rng pairs) in
  (now () -. t0, pairs, if w.w_warm then Some cache else None)

let expect w = if w.w_warm then "hit" else "miss"

(* ---- the layer replay -------------------------------------------------- *)

let layers = [ "resolve"; "link"; "key"; "opt"; "verify"; "backend"; "device"; "setup"; "launch"; "check" ]

(* the layers that allocate enough for their bytes to be worth a metric *)
let alloc_layers = [ "resolve"; "link"; "key"; "opt"; "backend"; "launch" ]

type replay = {
  rp_ms : (string, float) Hashtbl.t; (* layer -> summed ms *)
  rp_bytes : (string, float) Hashtbl.t; (* layer -> summed allocated bytes *)
  mutable rp_n : int;
  mutable rp_wall_ms : float; (* summed request wall time *)
  mutable rp_insts_out : int;
  mutable rp_spills : int;
  mutable rp_issues : int;
  mutable rp_sim_cycles : float;
}

let new_replay () =
  let z () = Hashtbl.of_seq (List.to_seq (List.map (fun l -> (l, 0.0)) layers)) in
  { rp_ms = z (); rp_bytes = z (); rp_n = 0; rp_wall_ms = 0.0; rp_insts_out = 0;
    rp_spills = 0; rp_issues = 0; rp_sim_cycles = 0.0 }

let timed rp layer f =
  let b0 = Gc.allocated_bytes () in
  let t0 = now () in
  let r = f () in
  let t1 = now () in
  let b1 = Gc.allocated_bytes () in
  Hashtbl.replace rp.rp_ms layer (Hashtbl.find rp.rp_ms layer +. ((t1 -. t0) *. 1e3));
  Hashtbl.replace rp.rp_bytes layer (Hashtbl.find rp.rp_bytes layer +. (b1 -. b0));
  r

let verify_exn what m =
  match Ozo_ir.Verifier.check m with
  | Ok () -> ()
  | Error _ -> fail "replay: %s module fails the verifier" what

let ir_insts (m : Ozo_ir.Types.modul) =
  List.fold_left
    (fun acc f ->
      List.fold_left
        (fun acc b ->
          acc + List.length b.Ozo_ir.Types.b_phis + List.length b.Ozo_ir.Types.b_insts + 1)
        acc f.Ozo_ir.Types.f_blocks)
    0 m.Ozo_ir.Types.m_funcs

(* One request through the same steps [Service.run] takes, each layer
   called at its public entry point and timed on its own. The compile
   half mirrors [Codesign.compile_linked]; the digest check against the
   timed passes proves the replay computes the same thing. [compiled] is
   the replay's own compile cache, keyed like [Ozo_serve.Cache]. *)
let replay_request g w rp compiled (pname, bname) =
  let t0 = now () in
  let o = service_opts w in
  let p = timed rp "resolve" (fun () -> S.resolve_proxy o pname) in
  let b = match E.build_of_name p bname with Ok b -> b | Error e -> fail "%s" e in
  let r = E.request_for ~domains:1 ~machine:o.S.sv_machine p b in
  let machine = r.C.Request.rq_machine and exec = r.C.Request.rq_exec in
  let k = Proxy.kernel_for p b.C.b_abi in
  let kname = k.Ozo_frontend.Ast.k_name in
  let linked = timed rp "link" (fun () -> C.link_stage ~machine b k) in
  let key =
    timed rp "key" (fun () -> C.Compile_key.hex (C.Compile_key.of_linked ~machine ~exec b linked))
  in
  let c =
    match Hashtbl.find_opt compiled key with
    | Some c -> c
    | None ->
      let am = Ozo_opt.Analysis.create () in
      let sink = Ozo_opt.Remarks.make () in
      let optimized = timed rp "opt" (fun () -> Ozo_opt.Pipeline.run ~am ~sink b.C.b_pipe linked) in
      timed rp "verify" (fun () -> verify_exn "optimized" optimized);
      let lower = timed rp "backend" (fun () -> Backend.run ~machine ~am optimized ~kernel:kname) in
      if lower.Backend.lw_module != optimized then
        timed rp "verify" (fun () -> verify_exn "lowered" lower.Backend.lw_module);
      let mode =
        match b.C.b_abi with
        | Ozo_frontend.Lower.Cuda -> Ozo_opt.Spmdize.Spmd
        | Ozo_frontend.Lower.Omp _ -> Ozo_opt.Spmdize.kernel_mode optimized kname
      in
      let c =
        { C.c_build = b; c_module = lower.Backend.lw_module; c_kernel = kname;
          c_mode = mode; c_machine = machine; c_lower = lower; c_exec = exec;
          c_regs = lower.Backend.lw_kernel_regs;
          c_smem = lower.Backend.lw_layout.Ozo_backend.Smem.ly_total;
          c_remarks = Ozo_opt.Remarks.items sink }
      in
      rp.rp_insts_out <- rp.rp_insts_out + ir_insts optimized;
      rp.rp_spills <- rp.rp_spills + C.spill_count c;
      Hashtbl.replace compiled key c;
      c
  in
  let dev = timed rp "device" (fun () -> C.device_request r c) in
  let inst = timed rp "setup" (fun () -> p.Proxy.p_setup dev) in
  (match timed rp "launch" (fun () -> C.launch_request r c dev inst.Proxy.i_args) with
  | Error f -> error g "replay: %s/%s faulted: %s" pname bname (Ozo_vgpu.Fault.to_line f)
  | Ok m ->
    (match timed rp "check" (fun () -> inst.Proxy.i_check ()) with
    | Ok () -> ()
    | Error e -> error g "replay: %s/%s failed its check: %s" pname bname e);
    rp.rp_issues <- rp.rp_issues + m.C.m_counters.Counters.warp_instructions;
    rp.rp_sim_cycles <- rp.rp_sim_cycles +. m.C.m_kernel_cycles;
    record g ~where:"replay" (pname, bname) ~cycles:m.C.m_kernel_cycles
      (result_digest ~cycles:m.C.m_kernel_cycles ~regs:m.C.m_regs
         ~smem:m.C.m_smem ~spills:m.C.m_spills m.C.m_counters));
  rp.rp_n <- rp.rp_n + 1;
  rp.rp_wall_ms <- rp.rp_wall_ms +. ((now () -. t0) *. 1e3)

let replay_pass g w compiled queue =
  let rp = new_replay () in
  List.iter (replay_request g w rp compiled) queue;
  rp

(* ---- output ------------------------------------------------------------ *)

let json_num v =
  if Float.is_finite v then Printf.sprintf "%.17g" v else fail "non-finite metric"

let print_result g ~attempted ~failed metrics =
  let correct = g.errors = [] && failed = 0 in
  (* the same error recurs once per pass: print each one once *)
  List.iter (Printf.printf "error: %s\n") (List.sort_uniq compare g.errors);
  if g.errors <> [] then Printf.printf "%d errors\n" (List.length g.errors);
  Printf.printf "results digest: %s\n" (combined_digest g);
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed
    (String.concat ", "
       (List.map
          (fun (name, unit, v) ->
            Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_num v) unit)
          metrics));
  correct

let print_host alu =
  Printf.printf "{\"host\": {\"nproc\": %d, \"ocaml\": %S, \"alu_ms\": %s}}\n"
    (Domain.recommended_domain_count ())
    Sys.ocaml_version (json_num alu)

(* ---- the two modes ----------------------------------------------------- *)

let timed_run g w ~seed ~seconds =
  let alu = alu_ms () in
  print_host alu;
  (* each set-up repetition draws its queue from another seed, so the
     digest gate also compares queue orders *)
  let setup_s = Array.make w.w_setups 0.0 and kept = ref None in
  for j = 0 to w.w_setups - 1 do
    let t, pairs, cache = setup g w ~rng:(Random.State.make [| seed; j + 1 |]) in
    setup_s.(j) <- t;
    (* only the last set-up's cache stays alive *)
    kept := Some (pairs, cache)
  done;
  let pairs, cache = Option.get !kept in
  let rng = Random.State.make [| seed |] in
  let passes = ref [] in
  let t_end = now () +. seconds in
  while List.length !passes < min_passes || now () < t_end do
    let queue = draw_queue w rng pairs in
    Gc.compact ();
    passes := serve_pass g w ~where:"timed" ~expect:(expect w) ?cache queue :: !passes
  done;
  let passes = !passes in
  let n = sumi (List.map (fun p -> p.ps_n) passes) in
  let ok = sumi (List.map (fun p -> p.ps_ok) passes) in
  let lat = Array.of_list (List.concat_map (fun p -> p.ps_latency_ms) passes) in
  Array.sort compare lat;
  let heap = Gc.quick_stat () in
  let metrics =
    [ ("throughput_rps", "req/s",
       median (List.map (fun p -> float_of_int p.ps_ok /. p.ps_wall_s) passes));
      ("latency_p50_ms", "ms", S.percentile lat 50.0);
      ("latency_p90_ms", "ms", S.percentile lat 90.0);
      ("alloc_mb_per_req", "MB", sum (List.map (fun p -> p.ps_alloc_b) passes) /. float_of_int n /. 1e6);
      ("peak_heap_mb", "MB", float_of_int (heap.Gc.top_heap_words * (Sys.word_size / 8)) /. 1e6);
      ("setup_s", "s", median (Array.to_list setup_s));
      ("sim_overhead_x", "ratio", sim_overhead_x g);
      ("valid_ratio", "ratio", float_of_int ok /. float_of_int n) ]
  in
  Printf.printf "%s: %d timed requests in %d passes, failed_ratio %.4f\n"
    w.w_name n (List.length passes) (float_of_int (n - ok) /. float_of_int n);
  List.iter (fun (name, unit, v) -> Printf.printf "  %-18s %14.4f %s\n" name v unit) metrics;
  print_result g ~attempted:n ~failed:(n - ok) metrics

let traced_run g w ~seed ~seconds =
  let alu = alu_ms () in
  print_host alu;
  let _, pairs, cache = setup g w ~rng:(Random.State.make [| seed; 1 |]) in
  let rng = Random.State.make [| seed |] in
  (* serve-repeat replays against a replay cache filled the same way *)
  let warm_compiled = Hashtbl.create 32 in
  if w.w_warm then ignore (replay_pass g w warm_compiled (shuffled rng pairs));
  let serves = ref [] and replays = ref [] in
  let t_end = now () +. seconds in
  while List.length !replays < 2 || now () < t_end do
    let queue = draw_queue w rng pairs in
    Gc.compact ();
    serves := serve_pass g w ~where:"traced" ~expect:(expect w) ?cache queue :: !serves;
    Gc.compact ();
    let compiled = if w.w_warm then warm_compiled else Hashtbl.create 32 in
    replays := replay_pass g w compiled queue :: !replays
  done;
  let serves = !serves and replays = !replays in
  let n_serve = sumi (List.map (fun p -> p.ps_n) serves) in
  let ok = sumi (List.map (fun p -> p.ps_ok) serves) in
  let n_replay = sumi (List.map (fun r -> r.rp_n) replays) in
  let per_serve f = float_of_int (sumi (List.map f serves)) /. float_of_int n_serve in
  let per_replay f = float_of_int (sumi (List.map f replays)) /. float_of_int n_replay in
  let bytes layer =
    sum (List.map (fun r -> Hashtbl.find r.rp_bytes layer) replays) /. float_of_int n_replay /. 1e6
  in
  (* every time is the median over replay passes of its mean per request;
     other.ms is each pass's request time minus its layer times, so it
     is never hidden and the rows add up to the request time up to the
     difference between a sum of medians and a median of sums *)
  let per_pass f = median (List.map (fun r -> f r /. float_of_int r.rp_n) replays) in
  let layer_ms l = per_pass (fun r -> Hashtbl.find r.rp_ms l) in
  let other_ms =
    per_pass (fun r -> r.rp_wall_ms -. sum (List.map (Hashtbl.find r.rp_ms) layers))
  in
  let req_ms = per_pass (fun r -> r.rp_wall_ms) in
  let untraced_ms = median (List.map (fun p -> p.ps_wall_s *. 1e3 /. float_of_int p.ps_n) serves) in
  let launch_s = sum (List.map (fun r -> Hashtbl.find r.rp_ms "launch") replays) /. 1e3 in
  let cache_hits = sumi (List.map (fun p -> p.ps_cache.Cache.cs_hits) serves) in
  let cache_lookups = cache_hits + sumi (List.map (fun p -> p.ps_cache.Cache.cs_misses) serves) in
  let metrics =
    List.map (fun l -> (l ^ ".ms", "ms", layer_ms l)) layers
    @ [ ("other.ms", "ms", other_ms) ]
    @ List.map (fun l -> (l ^ ".alloc_mb", "MB", bytes l)) alloc_layers
    @ [ ("opt.ir_insts_out", "count", per_replay (fun r -> r.rp_insts_out));
        ("backend.spills", "count", per_replay (fun r -> r.rp_spills));
        ("launch.issues", "count", per_replay (fun r -> r.rp_issues));
        ("launch.issues_per_s", "1/s",
         float_of_int (sumi (List.map (fun r -> r.rp_issues) replays)) /. launch_s);
        ("launch.sim_cycles", "cycles",
         sum (List.map (fun r -> r.rp_sim_cycles) replays) /. float_of_int n_replay);
        ("cache.hit_rate", "ratio",
         if cache_lookups = 0 then 0.0 else float_of_int cache_hits /. float_of_int cache_lookups);
        ("cache.evictions", "count", per_serve (fun p -> p.ps_cache.Cache.cs_evictions));
        ("harness.retries", "count", per_serve (fun p -> p.ps_retries));
        ("harness.fallbacks", "count", per_serve (fun p -> p.ps_fallbacks));
        ("gc.minor_per_req", "count", per_serve (fun p -> p.ps_minor));
        ("gc.major_per_req", "count", per_serve (fun p -> p.ps_major));
        ("trace.overhead_x", "ratio", req_ms /. untraced_ms);
        ("host.alu_ms", "ms", alu) ]
  in
  Printf.printf "%s: %d untraced + %d replayed requests; replayed %.3f ms/req, untraced %.3f ms/req\n"
    w.w_name n_serve n_replay req_ms untraced_ms;
  Printf.printf "  %-10s %10s %7s %12s\n" "layer" "ms/req" "share" "alloc MB/req";
  List.iter
    (fun l ->
      Printf.printf "  %-10s %10.4f %6.1f%% %12s\n" l (layer_ms l)
        (100.0 *. layer_ms l /. req_ms)
        (if List.mem l alloc_layers then Printf.sprintf "%.3f" (bytes l) else "-"))
    layers;
  Printf.printf "  %-10s %10.4f %6.1f%%\n" "other" other_ms (100.0 *. other_ms /. req_ms);
  let rows = other_ms +. sum (List.map layer_ms layers) in
  Printf.printf "  %-10s %10.4f %6.1f%%\n" "sum" rows (100.0 *. rows /. req_ms);
  List.iter
    (fun (name, unit, v) ->
      if not (String.ends_with ~suffix:".ms" name) then
        Printf.printf "  %-20s %16.4f %s\n" name v unit)
    metrics;
  print_result g ~attempted:n_serve ~failed:(n_serve - ok) metrics

(* ---- command line ------------------------------------------------------ *)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  Arg.parse
    [ ("--workload", Arg.Set_string workload, "NAME sweep-small | sweep-full | serve-repeat");
      ("--seed", Arg.Set_int seed, "N queue-order seed");
      ("--seconds", Arg.Set_float seconds, "S measured time (whole passes, at least 4)");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end metrics, or the per-layer replay") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload NAME --seed N --seconds S --trace 0|1";
  match List.find_opt (fun w -> w.w_name = !workload) workloads with
  | None ->
    prerr_endline ("unknown workload " ^ !workload);
    exit 2
  | Some w -> (
    let g = new_gate () in
    try
      let correct =
        if !trace = 0 then timed_run g w ~seed:!seed ~seconds:!seconds
        else traced_run g w ~seed:!seed ~seconds:!seconds
      in
      exit (if correct then 0 else 1)
    with
    | Bench_error e | S.Service_error e ->
      prerr_endline ("repobench: " ^ e);
      exit 2)
