(* Autotuner + cross-machine matrix tests (DESIGN.md §16).

   The tuner's contract: deterministic (same request and seed, same
   verdict, byte for byte), sound (every candidate is launch-equivalent
   to the default shape: wavefront-multiple threads, iteration space
   covered), and useful (on at least one proxy per machine it finds a
   shape that strictly beats the default under the model — the ISSUE's
   acceptance criterion). The matrix's contract: deterministic CSV,
   every cell valid, and the portability ordering the paper predicts
   (PP(new-rt) >= PP(old-rt), old-rt pinned at 1.00 relative). *)

module C = Ozo_core.Codesign
module E = Ozo_harness.Experiments
module Proxy = Ozo_proxies.Proxy
module Registry = Ozo_proxies.Registry
module Machine = Ozo_backend.Machine
module Tune = Ozo_tune.Tune
module Matrix = Ozo_tune.Matrix
module Trace = Ozo_obs.Trace
module Chrome = Ozo_obs.Chrome_trace

let tc = Alcotest.test_case

let small name = Registry.find_exn ~small:true name

let small_opts = { Ozo_serve.Service.default with Ozo_serve.Service.sv_small = true }

let csv_of_verdict v =
  Fmt.str "%a%a" Tune.pp_csv_header () Tune.pp_csv v

(* --- determinism ----------------------------------------------------------- *)

let test_search_deterministic () =
  List.iter
    (fun (machine, seed) ->
      let p = small "xsbench" in
      let once () =
        Tune.search ~seed ~machine p ~build_name:"new-rt"
      in
      let v1 = once () and v2 = once () in
      Alcotest.(check string)
        (Fmt.str "verdict csv identical (%s, seed %d)"
           machine.Machine.mc_name seed)
        (csv_of_verdict v1) (csv_of_verdict v2);
      Alcotest.(check (pair int int))
        "chosen shape identical"
        (v1.Tune.tv_chosen.Tune.cd_teams, v1.Tune.tv_chosen.Tune.cd_threads)
        (v2.Tune.tv_chosen.Tune.cd_teams, v2.Tune.tv_chosen.Tune.cd_threads))
    [ (Machine.vgpu, 0); (Machine.mi250, 0); (Machine.mi250, 7);
      (Machine.h100, 42) ]

let test_measured_refinement_deterministic () =
  let p = small "xsbench" in
  let once () =
    Tune.search ~seed:3 ~measure_top:3 ~machine:Machine.mi250 p
      ~build_name:"new-rt"
  in
  let v1 = once () and v2 = once () in
  Alcotest.(check int) "measured rows" (List.length v1.Tune.tv_measured)
    (List.length v2.Tune.tv_measured);
  Alcotest.(check bool) "some candidates measured" true
    (v1.Tune.tv_measured <> []);
  Alcotest.(check bool) "at most top-3 measured" true
    (List.length v1.Tune.tv_measured <= 3);
  (* every measured candidate validated: the tuner only relaunches
     shapes that are launch-equivalent to the default *)
  List.iter
    (fun (_, cycles) ->
      Alcotest.(check bool) "measured candidate validated" true
        (Float.is_finite cycles))
    v1.Tune.tv_measured;
  Alcotest.(check string) "verdict csv identical" (csv_of_verdict v1)
    (csv_of_verdict v2)

(* --- soundness of the candidate set ---------------------------------------- *)

let test_candidate_invariants () =
  List.iter
    (fun machine ->
      List.iter
        (fun p ->
          let v = Tune.search ~machine p ~build_name:"new-rt" in
          let total = p.Proxy.p_teams * p.Proxy.p_threads in
          let ws = machine.Machine.mc_warp_size in
          List.iter
            (fun c ->
              (* threads: the default shape or a wavefront multiple *)
              if
                c.Tune.cd_threads <> p.Proxy.p_threads
                && c.Tune.cd_threads mod ws <> 0
              then
                Alcotest.failf "%s on %s: candidate threads %d not a %d-multiple"
                  p.Proxy.p_name machine.Machine.mc_name c.Tune.cd_threads ws;
              (* coverage: at least the default iteration space *)
              if c.Tune.cd_teams * c.Tune.cd_threads < total then
                Alcotest.failf "%s on %s: %dx%d does not cover %d"
                  p.Proxy.p_name machine.Machine.mc_name c.Tune.cd_teams
                  c.Tune.cd_threads total;
              (* hw threads consistent with the execution mode *)
              if
                c.Tune.cd_hw_threads <> c.Tune.cd_threads
                && c.Tune.cd_hw_threads <> c.Tune.cd_threads + ws
              then
                Alcotest.failf "%s on %s: hw threads %d vs threads %d"
                  p.Proxy.p_name machine.Machine.mc_name c.Tune.cd_hw_threads
                  c.Tune.cd_threads)
            v.Tune.tv_candidates;
          (* model-only mode: the chosen candidate is the best-scored *)
          (match v.Tune.tv_candidates with
          | best :: _ ->
            Alcotest.(check (pair int int))
              (p.Proxy.p_name ^ ": chosen is head of ranking")
              (best.Tune.cd_teams, best.Tune.cd_threads)
              (v.Tune.tv_chosen.Tune.cd_teams, v.Tune.tv_chosen.Tune.cd_threads)
          | [] -> Alcotest.fail "empty candidate list"))
        (Registry.all_small ()))
    [ Machine.vgpu; Machine.mi250 ]

(* --- the acceptance criterion: the tuner finds improvements ----------------- *)

let test_finds_improvement () =
  List.iter
    (fun machine ->
      let improved =
        List.exists
          (fun p ->
            Tune.improved (Tune.search ~machine p ~build_name:"new-rt"))
          (Registry.all_small ())
      in
      Alcotest.(check bool)
        ("tuner improves some proxy on " ^ machine.Machine.mc_name)
        true improved)
    [ Machine.vgpu; Machine.v100; Machine.mi250; Machine.h100 ]

(* --- verdict lands in the trace and the journal ----------------------------- *)

let test_verdict_in_trace () =
  let p = small "xsbench" in
  let trace = Trace.make () in
  let _ = Tune.search ~trace ~machine:Machine.mi250 p ~build_name:"new-rt" in
  let path = Filename.temp_file "ozo_tune" ".trace.json" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      Chrome.write trace path;
      let ic = open_in path in
      let s = really_input_string ic (in_channel_length ic) in
      close_in ic;
      Alcotest.(check bool) "trace mentions tune-verdict" true
        (Test_portability.find_sub s "tune-verdict" <> None))

let test_journal_append () =
  let p = small "xsbench" in
  let v = Tune.search ~machine:Machine.h100 p ~build_name:"new-rt" in
  let path = Filename.temp_file "ozo_tune" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      Sys.remove path;
      Tune.append_journal ~path v;
      Tune.append_journal ~path v;
      let ic = open_in path in
      let l1 = input_line ic in
      let l2 = input_line ic in
      close_in ic;
      Alcotest.(check string) "append is idempotent per verdict" l1 l2;
      Alcotest.(check bool) "tagged as tune row" true
        (Test_portability.find_sub l1 "\"kind\":\"tune\"" <> None);
      Alcotest.(check bool) "machine recorded" true
        (Test_portability.find_sub l1 "\"machine\":\"h100\"" <> None))

(* --- the matrix -------------------------------------------------------------- *)

let matrix_csv t = Fmt.str "%a%a" Matrix.pp_csv_header () Matrix.pp_csv t

let test_matrix_deterministic_and_valid () =
  let run () =
    Matrix.run ~machines:[ "vgpu"; "v100"; "mi250" ]
      ~proxies:[ "xsbench"; "gridmini" ] small_opts
  in
  let t1 = run () and t2 = run () in
  Alcotest.(check string) "matrix csv deterministic" (matrix_csv t1)
    (matrix_csv t2);
  (* every cell of the small sweep must be valid *)
  List.iter
    (fun c ->
      if not (Matrix.cell_ok c) then
        Alcotest.failf "cell %s/%s/%s failed" c.Matrix.x_proxy c.Matrix.x_build
          c.Matrix.x_machine)
    t1.Matrix.mx_cells;
  (* shape: |proxies| x |builds| x |machines| cells *)
  Alcotest.(check int) "cell count"
    (2 * List.length E.build_names * 3)
    (List.length t1.Matrix.mx_cells);
  (* the baseline build is pinned at 1.00 relative on every machine *)
  List.iter
    (fun c ->
      if c.Matrix.x_build = "old-rt" then
        match Matrix.rel_perf t1 c with
        | Some r -> Alcotest.(check (float 1e-9)) "old-rt rel perf" 1.0 r
        | None -> Alcotest.fail "old-rt has no rel perf")
    t1.Matrix.mx_cells;
  (* the portability ordering the paper predicts *)
  List.iter
    (fun proxy ->
      let pp b = Matrix.pp_metric t1 ~proxy ~build:b in
      Alcotest.(check bool)
        (proxy ^ ": PP(new-rt) >= PP(old-rt)")
        true
        (pp "new-rt" >= pp "old-rt");
      Alcotest.(check bool)
        (proxy ^ ": PP(new-rt) in (0,1]")
        true
        (pp "new-rt" > 0.0 && pp "new-rt" <= 1.0))
    t1.Matrix.mx_proxies

(* app efficiency is 1.0 for the per-machine best build, and the PP of a
   build that is best everywhere equals 1.0 *)
let test_matrix_efficiency_bounds () =
  let t =
    Matrix.run ~machines:[ "vgpu"; "mi250" ] ~proxies:[ "xsbench" ] small_opts
  in
  List.iter
    (fun machine ->
      let best =
        List.filter
          (fun c ->
            c.Matrix.x_machine = machine
            && Matrix.app_efficiency t c = Some 1.0)
          t.Matrix.mx_cells
      in
      Alcotest.(check bool)
        (machine ^ ": some build has efficiency 1.0")
        true (best <> []))
    [ "vgpu"; "mi250" ];
  List.iter
    (fun c ->
      match Matrix.app_efficiency t c with
      | Some e ->
        Alcotest.(check bool) "efficiency in (0,1]" true (e > 0.0 && e <= 1.0)
      | None -> Alcotest.failf "cell %s/%s has no efficiency" c.Matrix.x_build
                  c.Matrix.x_machine)
    t.Matrix.mx_cells

(* matrix cells are rows of the batch drain: supervised, compiled
   through the shared cache and timed *)
let test_matrix_rows_supervised () =
  let t = Matrix.run ~machines:[ "vgpu"; "mi250" ] ~proxies:[ "xsbench" ] small_opts in
  List.iter
    (fun c ->
      let m = c.Matrix.x_m and what = c.Matrix.x_build ^ "@" ^ c.Matrix.x_machine in
      Alcotest.(check string) (what ^ ": breaker") "closed" m.E.r_breaker;
      Alcotest.(check int) (what ^ ": retries") 0 m.E.r_retries;
      Alcotest.(check bool) (what ^ ": no deadline") false m.E.r_deadline_hit;
      Alcotest.(check string) (what ^ ": machine") c.Matrix.x_machine m.E.r_machine;
      Alcotest.(check string) (what ^ ": compiled once") "miss" m.E.r_cache_disp;
      Alcotest.(check bool) (what ^ ": latency") true (m.E.r_latency_us > 0.0))
    t.Matrix.mx_cells

(* the matrix runs each cell once: a repeat is refused before any row
   runs, not accepted and ignored *)
let test_matrix_refuses_repeat () =
  match
    Matrix.run ~machines:[ "vgpu" ] ~proxies:[ "xsbench" ]
      { small_opts with Ozo_serve.Service.sv_repeat = 2 }
  with
  | _ -> Alcotest.fail "expected the matrix to refuse sv_repeat = 2"
  | exception Ozo_serve.Service.Service_error _ -> ()

let suite =
  [ tc "search: same seed, same verdict, byte for byte" `Quick
      test_search_deterministic;
    tc "search: measured refinement deterministic and validated" `Quick
      test_measured_refinement_deterministic;
    tc "candidates: wavefront multiples, coverage, hw threads" `Quick
      test_candidate_invariants;
    tc "acceptance: tuner strictly improves a proxy on every machine" `Quick
      test_finds_improvement;
    tc "verdict is recorded in the trace" `Quick test_verdict_in_trace;
    tc "verdict journals as one self-contained JSON line" `Quick
      test_journal_append;
    tc "matrix: deterministic csv, valid cells, PP ordering" `Quick
      test_matrix_deterministic_and_valid;
    tc "matrix: application-efficiency bounds" `Quick
      test_matrix_efficiency_bounds;
    tc "matrix: cells are supervised, cached, timed rows" `Quick
      test_matrix_rows_supervised;
    tc "matrix: refuses a repeat it would ignore" `Quick
      test_matrix_refuses_repeat ]
