(* Figure regeneration: every table and figure of the paper's evaluation
   section (Section V) from live compilation + simulation. Timings live in
   bench/perfbench.ml.

   Usage:
     bench/main.exe                 regenerate all figures/tables
     bench/main.exe fig10a|fig10b|fig10c|fig10d|fig10e
     bench/main.exe fig11 | fig12 | fig13
     bench/main.exe ablation-xs | ablation-fmm
     bench/main.exe csv             machine-readable dump of everything

   Figure ids follow DESIGN.md's experiment index:
     fig10a=xsbench  fig10b=rsbench  fig10c=testsnap  fig10d=minifmm
     (fig10e=gridmini relative row, see also fig12)                     *)

module E = Ozo_harness.Experiments
module R = Ozo_harness.Report
module Registry = Ozo_proxies.Registry

let fig10_ids =
  [ ("fig10a", "xsbench"); ("fig10b", "rsbench"); ("fig10c", "testsnap");
    ("fig10d", "minifmm"); ("fig10e", "gridmini") ]

let run_fig10 name =
  let p = Registry.find_exn name in
  let ms = E.fig10 p in
  Fmt.pr "%a" R.pp_fig10 (name, ms);
  ms

let run_fig11 () =
  List.iter
    (fun p ->
      let ms = E.fig10 p in
      Fmt.pr "%a" R.pp_fig11 (p.Ozo_proxies.Proxy.p_name, ms))
    (Registry.all ())

let run_fig12 () = Fmt.pr "%a" R.pp_fig12 (E.fig12 ())

let run_ablation name =
  let p = Registry.find_exn name in
  Fmt.pr "%a" R.pp_ablation (name, E.ablation p)

let run_csv () =
  Fmt.pr "%a" R.pp_csv_header ();
  List.iter
    (fun p -> List.iter (fun m -> Fmt.pr "%a" R.pp_csv m) (E.fig10 p))
    (Registry.all ())

let run_all () =
  Fmt.pr "=== Reproduction of 'Co-Designing an OpenMP GPU Runtime and Optimizations \
          for Near-Zero Overhead Execution' (IPDPS'22) ===@.";
  Fmt.pr "(simulated virtual-GPU cycles; shapes, not absolute times, are the claim)@.";
  Fmt.pr "@.--- Figure 10: relative performance per proxy application ---@.";
  List.iter (fun (_, name) -> ignore (run_fig10 name)) fig10_ids;
  Fmt.pr "@.--- Figure 11: kernel time / registers / shared memory ---@.";
  run_fig11 ();
  Fmt.pr "@.--- Figure 12: GridMini flops/cycle ---@.";
  run_fig12 ();
  Fmt.pr "@.--- Figure 13: GridMini optimization ablation ---@.";
  run_ablation "gridmini";
  Fmt.pr "@.--- Section V-C: XSBench / MiniFMM ablations ---@.";
  run_ablation "xsbench";
  run_ablation "minifmm";
  Fmt.pr "@.--- Section III-G: debug-mode runs (all runtime assumptions verified) ---@.";
  List.iter
    (fun p ->
      let m = E.debug_run p in
      let rel = E.measure_request p (E.request_for p (E.new_rt_for p)) in
      Fmt.pr "  %-10s debug build: %s (ktime %.0f cycles, %+.0f%% vs release)@."
        p.Ozo_proxies.Proxy.p_name
        (match m.E.r_check with
        | Ok () -> "results ok, assumptions hold"
        | Error e -> "FAILED: " ^ e)
        m.E.r_cycles
        (100.0 *. ((m.E.r_cycles /. rel.E.r_cycles) -. 1.0)))
    (Registry.all ())

let () =
  match if Array.length Sys.argv > 1 then Some Sys.argv.(1) else None with
  | None -> run_all ()
  | Some "csv" -> run_csv ()
  | Some "fig11" -> run_fig11 ()
  | Some "fig12" -> run_fig12 ()
  | Some "fig13" -> run_ablation "gridmini"
  | Some "ablation-xs" -> run_ablation "xsbench"
  | Some "ablation-fmm" -> run_ablation "minifmm"
  | Some id -> (
    match List.assoc_opt id fig10_ids with
    | Some pname -> ignore (run_fig10 pname)
    | None -> (
      match Registry.find id with
      | Some _ -> ignore (run_fig10 id)
      | None ->
        Fmt.epr "unknown target %s@." id;
        exit 1))
