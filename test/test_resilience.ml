(* Tests for the resilience layer: supervisor state machine (crash
   capture, retry/backoff, circuit breaker), engine watchdog deadlines,
   the crash-safe journal, campaign kill/resume and cache reuse through
   the batch drain, and the differential IR
   fuzzer with its shrinker. *)

open Ozo_ir.Types
open Util
module E = Ozo_harness.Experiments
module R = Ozo_harness.Report
module Fault = Ozo_vgpu.Fault
module Supervisor = Ozo_resilience.Supervisor
module Journal = Ozo_resilience.Journal
module Service = Ozo_serve.Service
module Irgen = Ozo_resilience.Irgen
module Fuzz = Ozo_resilience.Fuzz

(* a supervisor with injected clock/sleep so nothing waits for real *)
let make_sup ?(opts = Supervisor.default) ?(sleeps = ref []) () =
  let now = ref 0.0 in
  let sup =
    Supervisor.create
      ~clock:(fun () -> !now)
      ~sleep:(fun d ->
        sleeps := d :: !sleeps;
        now := !now +. d)
      opts
  in
  (sup, sleeps)

let ok_row ~proxy ~build =
  { (E.dead_measurement ~proxy ~build (Fault.make Fault.Invalid "unused")) with
    E.r_check = Ok (); r_fault = None }

let failed_row ~proxy ~build kind =
  E.dead_measurement ~proxy ~build (Fault.make kind "synthetic failure")

(* --- supervisor --------------------------------------------------------- *)

let test_crash_capture () =
  let sup, _ = make_sup () in
  let m =
    Supervisor.supervise sup ~proxy:"p" ~build:"b" ~machine:"vgpu"
      (fun ~attempt:_ ~watchdog:_ ->
        failwith "compiler exploded")
  in
  (match m.E.r_fault with
  | Some f ->
    Alcotest.(check string) "kind" "internal" (Fault.kind_name f.Fault.f_kind);
    Alcotest.(check bool) "message names the exception" true
      (contains f.Fault.f_msg "compiler exploded")
  | None -> Alcotest.fail "expected a captured fault");
  Alcotest.(check bool) "check failed" true (Result.is_error m.E.r_check);
  Alcotest.(check string) "breaker still closed" "closed" m.E.r_breaker

let test_retry_then_success () =
  let sleeps = ref [] in
  let sup, _ = make_sup ~sleeps () in
  let calls = ref 0 in
  let m =
    Supervisor.supervise sup ~proxy:"p" ~build:"b" ~machine:"vgpu"
      (fun ~attempt ~watchdog:_ ->
        incr calls;
        if attempt < 2 then failed_row ~proxy:"p" ~build:"b" Fault.Deadline
        else ok_row ~proxy:"p" ~build:"b")
  in
  Alcotest.(check int) "three attempts" 3 !calls;
  Alcotest.(check int) "two retries recorded" 2 m.E.r_retries;
  Alcotest.(check bool) "deadline flagged" true m.E.r_deadline_hit;
  Alcotest.(check bool) "final check ok" true (Result.is_ok m.E.r_check);
  Alcotest.(check int) "one backoff per retry" 2 (List.length !sleeps);
  List.iter
    (fun d -> Alcotest.(check bool) "positive backoff" true (d > 0.0))
    !sleeps

let test_retry_exhausted () =
  let sup, _ = make_sup () in
  let calls = ref 0 in
  let m =
    Supervisor.supervise sup ~proxy:"p" ~build:"b" ~machine:"vgpu"
      (fun ~attempt:_ ~watchdog:_ ->
        incr calls;
        failed_row ~proxy:"p" ~build:"b" Fault.Deadline)
  in
  Alcotest.(check int) "initial + sv_retries attempts"
    (1 + Supervisor.default.Supervisor.sv_retries)
    !calls;
  Alcotest.(check bool) "still failed" true (Result.is_error m.E.r_check)

let test_no_retry_for_permanent_fault () =
  let sup, _ = make_sup () in
  let calls = ref 0 in
  let m =
    Supervisor.supervise sup ~proxy:"p" ~build:"b" ~machine:"vgpu"
      (fun ~attempt:_ ~watchdog:_ ->
        incr calls;
        failed_row ~proxy:"p" ~build:"b" Fault.Oob)
  in
  Alcotest.(check int) "no retry for oob" 1 !calls;
  Alcotest.(check int) "zero retries recorded" 0 m.E.r_retries

let test_breaker_trips_and_skips () =
  let opts =
    { Supervisor.default with
      Supervisor.sv_breaker_threshold = 2; sv_retries = 0 }
  in
  let sup, _ = make_sup ~opts () in
  let calls = ref 0 in
  let fail_once () =
    Supervisor.supervise sup ~proxy:"p" ~build:"b" ~machine:"vgpu"
      (fun ~attempt:_ ~watchdog:_ ->
        incr calls;
        failed_row ~proxy:"p" ~build:"b" Fault.Oob)
  in
  let m1 = fail_once () in
  Alcotest.(check string) "first failure: closed" "closed" m1.E.r_breaker;
  let m2 = fail_once () in
  Alcotest.(check string) "threshold reached: open" "open" m2.E.r_breaker;
  let m3 = fail_once () in
  Alcotest.(check string) "then skipped" "skipped" m3.E.r_breaker;
  Alcotest.(check int) "task not invoked once open" 2 !calls;
  (match m3.E.r_fault with
  | Some f ->
    Alcotest.(check string) "skip is an internal fault" "internal"
      (Fault.kind_name f.Fault.f_kind)
  | None -> Alcotest.fail "skipped row carries a fault");
  (* a different build is unaffected *)
  let m4 =
    Supervisor.supervise sup ~proxy:"p" ~build:"other" ~machine:"vgpu"
      (fun ~attempt:_ ~watchdog:_ -> ok_row ~proxy:"p" ~build:"other")
  in
  Alcotest.(check string) "independent key stays closed" "closed" m4.E.r_breaker

let test_breaker_resets_on_success () =
  let opts =
    { Supervisor.default with
      Supervisor.sv_breaker_threshold = 2; sv_retries = 0 }
  in
  let sup, _ = make_sup ~opts () in
  let run row =
    Supervisor.supervise sup ~proxy:"p" ~build:"b" ~machine:"vgpu"
      (fun ~attempt:_ ~watchdog:_ ->
        row)
  in
  ignore (run (failed_row ~proxy:"p" ~build:"b" Fault.Oob));
  ignore (run (ok_row ~proxy:"p" ~build:"b"));
  let m = run (failed_row ~proxy:"p" ~build:"b" Fault.Oob) in
  Alcotest.(check string) "success reset the count" "closed" m.E.r_breaker

(* a matrix runs one (proxy, build) on several machines: failures on one
   machine must not skip another machine's cell *)
let test_breaker_per_machine () =
  let opts =
    { Supervisor.default with
      Supervisor.sv_breaker_threshold = 1; sv_retries = 0 }
  in
  let sup, _ = make_sup ~opts () in
  let run machine row =
    Supervisor.supervise sup ~proxy:"p" ~build:"b" ~machine
      (fun ~attempt:_ ~watchdog:_ -> row)
  in
  let m = run "v100" (failed_row ~proxy:"p" ~build:"b" Fault.Oob) in
  Alcotest.(check string) "v100 opens" "open" m.E.r_breaker;
  let m = run "mi250" (ok_row ~proxy:"p" ~build:"b") in
  Alcotest.(check string) "mi250 still runs" "closed" m.E.r_breaker;
  let m = run "v100" (ok_row ~proxy:"p" ~build:"b") in
  Alcotest.(check string) "v100 skipped" "skipped" m.E.r_breaker;
  Alcotest.(check string) "skip row names its machine" "v100" m.E.r_machine

(* --- watchdog ----------------------------------------------------------- *)

(* a kernel that loops far past the watchdog poll interval *)
let long_loop_module () =
  kernel_module ~name:"spin" ~params:[ Ptr Global ] (fun b ps ->
      let out = List.hd ps in
      ignore
        (B.for_loop b ~lo:(B.i64 0) ~hi:(B.i64 100_000) ~step:(B.i64 1)
           ~body:(fun iv -> B.store b I64 iv out)))

let test_watchdog_deadline () =
  let m = long_loop_module () in
  let dev = Device.create m in
  let buf = Device.alloc dev 8 in
  let opts =
    { Device.Launch_opts.default with
      Device.Launch_opts.watchdog = Some (fun () -> true) }
  in
  match Device.launch ~opts dev ~teams:1 ~threads:32 [ Engine.Ai (Device.ptr buf) ] with
  | Ok _ -> Alcotest.fail "expected a deadline fault"
  | Error f ->
    Alcotest.(check string) "deadline kind" "deadline"
      (Fault.kind_name f.Fault.f_kind)

let test_watchdog_quiet_when_unexpired () =
  let m = long_loop_module () in
  let dev = Device.create m in
  let buf = Device.alloc dev 8 in
  let opts =
    { Device.Launch_opts.default with
      Device.Launch_opts.watchdog = Some (fun () -> false) }
  in
  match Device.launch ~opts dev ~teams:1 ~threads:32 [ Engine.Ai (Device.ptr buf) ] with
  | Ok _ -> ()
  | Error f -> Alcotest.failf "unexpected fault: %a" Fault.pp f

(* --- journal ------------------------------------------------------------ *)

let sample_fault () =
  let ctx = Fault.make_ctx () in
  Fault.set_site ctx ~fn:"k" ~blk:"entry" ~idx:3;
  Fault.set_strand ctx ~team:1 ~warp:0 ~mask:(Array.make 32 true);
  Fault.annotate ctx
    (Fault.make
       ~access:{ Fault.a_ptr = 0xbeef; a_space = "global"; a_offset = 16; a_bytes = 8 }
       ~threads:[ 3; 7 ] Fault.Oob "access out of bounds")

let test_journal_roundtrip () =
  let path = Filename.temp_file "ozo_journal" ".jsonl" in
  let m0 = ok_row ~proxy:"px" ~build:"b0" in
  let m0 = { m0 with E.r_cycles = 1234.5; r_regs = 17; r_occupancy = 0.875 } in
  let m1 =
    { (E.dead_measurement ~fallbacks:[ "nightly"; "O0" ] ~proxy:"px" ~build:"b1"
         (sample_fault ()))
      with
      E.r_retries = 2; r_deadline_hit = true; r_breaker = "open" }
  in
  let w = Journal.start ~path ~fingerprint:"fp-test" in
  Journal.append w ~seq:0 m0;
  Journal.append w ~seq:1 m1;
  Journal.close w;
  (match Journal.load ~path with
  | Error e -> Alcotest.failf "load: %s" e
  | Ok (fp, entries) ->
    Alcotest.(check string) "fingerprint" "fp-test" fp;
    Alcotest.(check int) "two entries" 2 (List.length entries);
    let r0 = (List.nth entries 0).Journal.e_m in
    let r1 = (List.nth entries 1).Journal.e_m in
    Alcotest.(check string) "csv row 0 identical" (Fmt.str "%a" R.pp_csv m0)
      (Fmt.str "%a" R.pp_csv r0);
    Alcotest.(check string) "csv row 1 identical" (Fmt.str "%a" R.pp_csv m1)
      (Fmt.str "%a" R.pp_csv r1);
    (match r1.E.r_fault with
    | Some f ->
      Alcotest.(check string) "fault line survives" (Fault.to_line (sample_fault ()))
        (Fault.to_line f)
    | None -> Alcotest.fail "fault lost"));
  Sys.remove path

let test_journal_tolerates_torn_line () =
  let path = Filename.temp_file "ozo_journal" ".jsonl" in
  let w = Journal.start ~path ~fingerprint:"fp" in
  Journal.append w ~seq:0 (ok_row ~proxy:"px" ~build:"b0");
  Journal.close w;
  (* simulate a crash mid-write: a truncated JSON line at the end *)
  let oc = open_out_gen [ Open_wronly; Open_append ] 0o644 path in
  output_string oc "{\"seq\":1,\"m\":{\"proxy\":\"px\",\"bui";
  close_out oc;
  (match Journal.load ~path with
  | Error e -> Alcotest.failf "torn line should be tolerated: %s" e
  | Ok (_, entries) -> Alcotest.(check int) "intact rows kept" 1 (List.length entries));
  Sys.remove path

(* --- campaign kill / resume -------------------------------------------- *)

let campaign_opts ?(repeat = 1) journal resume abort_after =
  { Service.default with
    Service.sv_small = true; sv_repeat = repeat; sv_journal = journal;
    sv_resume = resume; sv_abort_after = abort_after }

let campaign o = fst (Service.campaign o ~proxies:[ "xsbench" ])

(* latency is wall-clock time: the one column two runs cannot share *)
let csv_of ms =
  Fmt.str "%a%a" R.pp_csv_header ()
    (fun ppf -> List.iter (fun m -> R.pp_csv ppf { m with E.r_latency_us = 0.0 }))
    ms

(* killed mid-run after [abort] fresh rows, then resumed: the CSV equals
   an uninterrupted run's but for latency, the cache column included *)
let resume_identical ~repeat ~abort () =
  let path = Filename.temp_file "ozo_campaign" ".jsonl" in
  (match campaign (campaign_opts ~repeat (Some path) false (Some abort)) with
  | _ -> Alcotest.fail "expected the abort hook to fire"
  | exception Service.Service_error _ -> ());
  (match Journal.load ~path with
  | Ok (_, entries) -> Alcotest.(check int) "journaled rows" abort (List.length entries)
  | Error e -> Alcotest.failf "journal after abort: %s" e);
  (* resumed run completes the remaining rows *)
  let resumed = campaign (campaign_opts ~repeat (Some path) true None) in
  (* uninterrupted reference run *)
  let full = campaign (campaign_opts ~repeat None false None) in
  Alcotest.(check int) "row count" (List.length full) (List.length resumed);
  Alcotest.(check string) "identical CSV but for latency" (csv_of full) (csv_of resumed);
  Sys.remove path

let test_campaign_resume_identical = resume_identical ~repeat:1 ~abort:3

(* the second sweep starts inside the journal: the rows after the resume
   hit the compiles the replayed rows made, as they do uninterrupted *)
let test_campaign_resume_warm_cache = resume_identical ~repeat:2 ~abort:6

let test_campaign_resume_rejects_other_fingerprint () =
  let path = Filename.temp_file "ozo_campaign" ".jsonl" in
  let w = Journal.start ~path ~fingerprint:"someone-else" in
  Journal.close w;
  (match campaign (campaign_opts (Some path) true None) with
  | _ -> Alcotest.fail "expected a fingerprint mismatch"
  | exception Service.Service_error msg ->
    Alcotest.(check bool) "names the mismatch" true (contains msg "fingerprint"));
  Sys.remove path

(* the campaign drains through the compile cache: a repeated sweep
   compiles nothing and measures exactly what the first sweep did *)
let test_campaign_repeat_hits_cache () =
  let ms = campaign { (campaign_opts None false None) with Service.sv_repeat = 2 } in
  let n = List.length ms / 2 in
  let first = List.filteri (fun i _ -> i < n) ms
  and second = List.filteri (fun i _ -> i >= n) ms in
  let volatile m = { m with E.r_cache_disp = "-"; r_latency_us = 0.0 } in
  List.iter2
    (fun a b ->
      Alcotest.(check string) (a.E.r_build ^ ": first sweep compiles") "miss"
        a.E.r_cache_disp;
      Alcotest.(check string) (b.E.r_build ^ ": second sweep hits") "hit"
        b.E.r_cache_disp;
      Alcotest.(check string)
        (b.E.r_build ^ ": same row both sweeps")
        (Fmt.str "%a" R.pp_csv (volatile a))
        (Fmt.str "%a" R.pp_csv (volatile b)))
    first second

(* --- fuzzer ------------------------------------------------------------- *)

let test_irgen_always_verifies () =
  for seed = 1 to 50 do
    let m = Irgen.generate ~seed in
    check_verifies (Printf.sprintf "irgen seed %d" seed) m
  done

let test_irgen_deterministic () =
  let a = Irgen.generate ~seed:7 and b = Irgen.generate ~seed:7 in
  Alcotest.(check bool) "same seed, same module" true
    (Ozo_ir.Types.equal_modul a b)

let test_fuzz_clean_on_real_pipeline () =
  let r = Fuzz.run ~seeds:6 ~base_seed:100 () in
  Alcotest.(check int) "no differential failures" 0
    (List.length r.Fuzz.fz_failures)

let test_fuzz_finds_and_shrinks_planted_miscompile () =
  let r = Fuzz.run ~plant:Fuzz.flip_first_add ~seeds:2 ~base_seed:1 () in
  Alcotest.(check bool) "planted miscompile found" true (r.Fuzz.fz_failures <> []);
  List.iter
    (fun fl ->
      Alcotest.(check bool)
        (Printf.sprintf "seed %d shrunk to <= 10 insts (got %d)" fl.Fuzz.fl_seed
           fl.Fuzz.fl_insts_after)
        true
        (fl.Fuzz.fl_insts_after <= 10);
      Alcotest.(check bool) "shrinking made progress" true
        (fl.Fuzz.fl_insts_after < fl.Fuzz.fl_insts_before);
      check_verifies "shrunk module" fl.Fuzz.fl_module;
      (* the minimized module still reproduces the exact signature *)
      Alcotest.(check (option string)) "signature stable"
        (Some fl.Fuzz.fl_signature)
        (Fuzz.signature_of ~plant:Fuzz.flip_first_add fl.Fuzz.fl_module))
    r.Fuzz.fz_failures

let suite =
  [ tc "supervisor: host crash becomes an internal fault" test_crash_capture;
    tc "supervisor: transient fault retries then succeeds" test_retry_then_success;
    tc "supervisor: retries are bounded" test_retry_exhausted;
    tc "supervisor: permanent faults are not retried" test_no_retry_for_permanent_fault;
    tc "supervisor: breaker trips open and skips" test_breaker_trips_and_skips;
    tc "supervisor: breaker resets on success" test_breaker_resets_on_success;
    tc "supervisor: breaker is per machine" test_breaker_per_machine;
    tc "watchdog: expired deadline faults the launch" test_watchdog_deadline;
    tc "watchdog: unexpired deadline is invisible" test_watchdog_quiet_when_unexpired;
    tc "journal: measurement roundtrip is csv-exact" test_journal_roundtrip;
    tc "journal: torn final line is tolerated" test_journal_tolerates_torn_line;
    tc "campaign: kill + resume produces identical csv" test_campaign_resume_identical;
    tc "campaign: kill + resume keeps the cache column (repeat 2)"
      test_campaign_resume_warm_cache;
    tc "campaign: resume refuses a foreign journal" test_campaign_resume_rejects_other_fingerprint;
    tc "campaign: a repeated sweep hits the compile cache" test_campaign_repeat_hits_cache;
    tc "irgen: generated modules always verify" test_irgen_always_verifies;
    tc "irgen: generation is deterministic" test_irgen_deterministic;
    tc "fuzz: clean run on the real pipeline" test_fuzz_clean_on_real_pipeline;
    tc "fuzz: planted miscompile is found and shrunk" test_fuzz_finds_and_shrinks_planted_miscompile ]
