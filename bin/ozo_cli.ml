(* Command-line driver: compile, run, inspect and measure the proxy
   applications under any build configuration.

     ozo_cli list
     ozo_cli run xsbench --build new-rt [--debug] [--small] [--sanitize]
                         [--inject corrupt-load@k:3] [--seed 7] [--profile]
     ozo_cli inspect gridmini --build new-rt [--full-ir]
     ozo_cli remarks rsbench
     ozo_cli trace testsnap [--out testsnap.trace.json] [--check]
     ozo_cli ablate gridmini
     ozo_cli sanitize xsbench [--small]
     ozo_cli campaign rsbench [--inject skip-barrier] [--seed 42] [--profile]  *)

module C = Ozo_core.Codesign
module E = Ozo_harness.Experiments
module R = Ozo_harness.Report
module Proxy = Ozo_proxies.Proxy
module Registry = Ozo_proxies.Registry
module Trace = Ozo_obs.Trace
module Chrome = Ozo_obs.Chrome_trace
module Json = Ozo_obs.Json
module Machine = Ozo_backend.Machine
module Tune = Ozo_tune.Tune
module Matrix = Ozo_tune.Matrix
open Cmdliner

(* the harness owns the canonical name → build mapping *)
let build_of_string p name =
  Result.map_error (fun e -> `Msg e) (E.build_of_name p name)

let proxy_arg =
  let doc = "Proxy application (xsbench, rsbench, gridmini, testsnap, minifmm)." in
  Arg.(required & pos 0 (some string) None & info [] ~docv:"PROXY" ~doc)

let build_arg =
  let doc = "Build configuration: old-rt, new-rt-nightly, new-rt-no-assumptions, new-rt, cuda." in
  Arg.(value & opt string "new-rt" & info [ "build"; "b" ] ~docv:"BUILD" ~doc)

let small_arg =
  let doc = "Use the reduced test-size workload." in
  Arg.(value & flag & info [ "small" ] ~doc)

let debug_arg =
  let doc = "Compile the runtime in debug mode and verify assumptions at runtime." in
  Arg.(value & flag & info [ "debug" ] ~doc)

let sanitize_arg =
  let doc = "Run under the SIMT sanitizer (bounds, init, race, barrier checks)." in
  Arg.(value & flag & info [ "sanitize" ] ~doc)

let inject_arg =
  let doc =
    "Inject a deterministic fault: ACTION[@FUNC][:NTH] with ACTION one of \
     corrupt-load, drop-store, skip-barrier, trunc-shared, violate-assume. \
     NTH (the firing occurrence) is drawn from --seed when omitted."
  in
  Arg.(value & opt (some string) None & info [ "inject" ] ~docv:"SPEC" ~doc)

let seed_arg =
  let doc = "PRNG seed for fault-injection campaigns." in
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"N" ~doc)

let profile_arg =
  let doc = "Record a trace with the per-block hot-spot profile and print it." in
  Arg.(value & flag & info [ "profile" ] ~doc)

let domains_arg =
  let doc =
    "Shard each launch's team loop over N OCaml domains (capped at the team \
     count). Results are bit-identical to --domains 1; only wall-clock changes."
  in
  Arg.(value & opt int 1 & info [ "domains" ] ~docv:"N" ~doc)

let exec_arg =
  let doc =
    "Execution path: ir (the decoded-IR interpreter) or vm (threaded code \
     compiled from the register-allocated VM form). Results are bit-identical \
     on both paths; only wall-clock changes."
  in
  Arg.(value & opt string "ir" & info [ "exec" ] ~docv:"PATH" ~doc)

let parse_exec s =
  match Ozo_vgpu.Engine.exec_of_name s with
  | Some e -> Ok e
  | None -> Error (`Msg ("unknown exec path " ^ s ^ " (ir|vm)"))

(* one converter for every subcommand that takes a machine descriptor *)
let machine_names_doc = String.concat "|" Machine.names

let parse_machine s =
  match Machine.find s with
  | Some m -> Ok m
  | None -> Error (`Msg ("unknown machine " ^ s ^ " (" ^ machine_names_doc ^ ")"))

let machine_arg =
  let doc =
    "Machine descriptor (" ^ machine_names_doc
    ^ "): wavefront width, SM count and occupancy limits the compile, \
       simulation and cost model run against."
  in
  Arg.(value & opt string "vgpu" & info [ "machine"; "m" ] ~docv:"MACHINE" ~doc)

let max_regs_arg =
  let doc =
    "Override the per-thread register budget (forces spilling below the \
     kernel's natural pressure)."
  in
  Arg.(value & opt (some int) None & info [ "max-regs" ] ~docv:"N" ~doc)

let with_max_regs max_regs machine =
  match max_regs with
  | Some n -> Machine.with_reg_budget n machine
  | None -> machine

let csv_arg = Arg.(value & flag & info [ "csv" ] ~doc:"Emit machine-readable CSV rows.")

let journal_arg =
  let doc =
    "Append every completed row to this crash-safe JSONL journal as the rows \
     run."
  in
  Arg.(value & opt (some string) None & info [ "journal" ] ~docv:"FILE" ~doc)

let repeat_arg =
  let doc =
    "Run the rows N times over (later passes hit the compile cache and \
     exercise the circuit breaker)."
  in
  Arg.(value & opt int 1 & info [ "repeat" ] ~docv:"N" ~doc)

let parse_inject seed = function
  | None -> Ok None
  | Some s -> (
    match Ozo_vgpu.Faultinject.parse ~seed s with
    | Ok spec -> Ok (Some spec)
    | Error e -> Error (`Msg e))

let find_proxy small name =
  Option.to_result ~none:(`Msg ("unknown proxy " ^ name)) (Registry.find ~small name)

let handle = function
  | Ok () -> 0
  | Error (`Msg m) ->
    Fmt.epr "error: %s@." m;
    1

(* --- list --------------------------------------------------------------- *)

let list_cmd =
  let run () =
    List.iter
      (fun p ->
        Fmt.pr "%-10s teams=%-3d threads=%-3d  %s@." p.Proxy.p_name p.Proxy.p_teams
          p.Proxy.p_threads p.Proxy.p_descr)
      (Registry.all ());
    0
  in
  Cmd.v (Cmd.info "list" ~doc:"List the available proxy applications")
    Term.(const run $ const ())

(* --- run ---------------------------------------------------------------- *)

let run_cmd =
  let run name build small debug sanitize inject seed profile domains exec
      machine =
    handle
      (let ( let* ) = Result.bind in
       let* p = find_proxy small name in
       let* b = build_of_string p build in
       let* inject = parse_inject seed inject in
       let* exec = parse_exec exec in
       let* machine = parse_machine machine in
       let b = if debug then C.with_debug b else b in
       let trace = if profile then Trace.make () else Trace.null in
       let m =
         E.measure_request p
           (E.request_for ~check_assumes:debug ~sanitize ?inject ~trace ~profile
              ~domains ~exec ~machine p b)
       in
       Fmt.pr "%a%a" R.pp_fig11 (name, [ m ]) R.pp_csv_header ();
       Fmt.pr "%a" R.pp_csv m;
       if profile then begin
         Fmt.pr "%a" R.pp_phases (name, [ m ]);
         (match m.E.r_cache with
         | Some (h, mi, inv) ->
           let total = h + mi in
           Fmt.pr "analysis cache: %d hits, %d misses, %d invalidations (%.0f%% hit rate)@."
             h mi inv
             (if total = 0 then 0.0
              else 100.0 *. float_of_int h /. float_of_int total)
         | None -> ());
         Fmt.pr "%a" R.pp_hotspots m
       end;
       match m.E.r_check with
       | Ok () ->
         Fmt.pr "result check: %s@." (R.status_str m);
         Ok ()
       | Error e -> Error (`Msg ("result check failed: " ^ e)))
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Compile and run one proxy under one build configuration")
    Term.(const run $ proxy_arg $ build_arg $ small_arg $ debug_arg $ sanitize_arg
          $ inject_arg $ seed_arg $ profile_arg $ domains_arg $ exec_arg
          $ machine_arg)

(* --- inspect ------------------------------------------------------------ *)

let inspect_cmd =
  let full_ir =
    Arg.(value & flag & info [ "full-ir" ] ~doc:"Print the whole module, not just the kernel.")
  in
  let run name build small full =
    handle
      (let ( let* ) = Result.bind in
       let* p = find_proxy small name in
       let* b = build_of_string p build in
       let c = C.compile b (Proxy.kernel_for p b.C.b_abi) in
       Fmt.pr "build: %s   mode: %s   regs: %d   smem: %dB@.@." b.C.b_label
         (match c.C.c_mode with Ozo_opt.Spmdize.Spmd -> "SPMD" | _ -> "generic")
         c.C.c_regs c.C.c_smem;
       if full then Fmt.pr "%a@." Ozo_ir.Printer.pp_module c.C.c_module
       else
         Fmt.pr "%a@." Ozo_ir.Printer.pp_func
           (Ozo_ir.Types.find_func_exn c.C.c_module c.C.c_kernel);
       Ok ())
  in
  Cmd.v
    (Cmd.info "inspect" ~doc:"Print the optimized IR of a proxy kernel")
    Term.(const run $ proxy_arg $ build_arg $ small_arg $ full_ir)

(* --- remarks ------------------------------------------------------------- *)

let remarks_cmd =
  let run name build small =
    handle
      (let ( let* ) = Result.bind in
       let* p = find_proxy small name in
       let* b = build_of_string p build in
       let c = C.compile b (Proxy.kernel_for p b.C.b_abi) in
       List.iter (fun r -> Fmt.pr "%a@." Ozo_opt.Remarks.pp r) c.C.c_remarks;
       Ok ())
  in
  Cmd.v
    (Cmd.info "remarks"
       ~doc:"Show optimization remarks (-Rpass=openmp-opt analog) for a proxy build")
    Term.(const run $ proxy_arg $ build_arg $ small_arg)

(* --- trace --------------------------------------------------------------- *)

let trace_cmd =
  let out_arg =
    let doc = "Output file for the Chrome trace JSON (default PROXY.trace.json)." in
    Arg.(value & opt (some string) None & info [ "out"; "o" ] ~docv:"FILE" ~doc)
  in
  let check_arg =
    let doc =
      "Validate the emitted JSON: schema, pass spans nested under the compile \
       span, phase spans under the launch span, hot-spot events present."
    in
    Arg.(value & flag & info [ "check" ] ~doc)
  in
  (* structural containment checks over the flat event list; nesting in
     the Chrome format is conveyed by time ranges on one tid *)
  let check_trace s =
    let ( let* ) = Result.bind in
    let* events = Chrome.validate s in
    let require name =
      match Chrome.spans_by_name events name with
      | [] -> Error ("trace has no \"" ^ name ^ "\" span")
      | sp :: _ -> Ok sp
    in
    let* compile = require "compile" in
    let* launch = require "launch" in
    let* _ = require "decode" in
    let* _ = require "execute" in
    let* _ = require "readback" in
    let prefixed pre ev =
      match Chrome.ev_name ev with
      | Some n -> String.length n >= String.length pre && String.sub n 0 (String.length pre) = pre
      | None -> false
    in
    let passes = List.filter (fun ev -> prefixed "pass:" ev && Chrome.ev_ph ev = Some "X") events in
    let* () = if passes = [] then Error "trace has no pass spans" else Ok () in
    let* () =
      if List.for_all (Chrome.contains compile) passes then Ok ()
      else Error "pass spans are not nested under the compile span"
    in
    let* () =
      let phases = List.concat_map (Chrome.spans_by_name events) [ "decode"; "execute"; "readback" ] in
      if List.for_all (Chrome.contains launch) phases then Ok ()
      else Error "phase spans are not nested under the launch span"
    in
    let hots = List.filter (prefixed "hot:") events in
    let* () = if hots = [] then Error "trace has no hot-spot events" else Ok () in
    (* the pipeline must have reported its analysis-cache counters, and a
       traced compile of a real proxy must have produced cache hits *)
    let* cache_hits =
      match
        List.find_opt
          (fun ev ->
            Chrome.ev_ph ev = Some "i" && Chrome.ev_name ev = Some "analysis-cache")
          events
      with
      | None -> Error "trace has no analysis-cache event"
      | Some ev -> (
        match
          Option.bind (Json.member "args" ev) (Json.member "hits")
          |> Fun.flip Option.bind Json.to_number
        with
        | None -> Error "analysis-cache event lacks a numeric hits arg"
        | Some h when h <= 0.0 -> Error "analysis-cache event reports zero hits"
        | Some h -> Ok (int_of_float h))
    in
    Ok (List.length events, List.length passes, List.length hots, cache_hits)
  in
  let run name build small out check =
    handle
      (let ( let* ) = Result.bind in
       let* p = find_proxy small name in
       let* b = build_of_string p build in
       let trace = Trace.make () in
       let m = E.measure_request p (E.request_for ~trace ~profile:true p b) in
       let path = match out with Some f -> f | None -> name ^ ".trace.json" in
       Chrome.write trace path;
       Fmt.pr "%a@." Ozo_obs.Profile.pp_report trace;
       Fmt.pr "wrote %s (%d spans)@." path (Trace.count_spans trace);
       let* () =
         match m.E.r_check with
         | Ok () -> Ok ()
         | Error e -> Error (`Msg ("result check failed: " ^ e))
       in
       if not check then Ok ()
       else
         let ic = open_in path in
         let len = in_channel_length ic in
         let s = really_input_string ic len in
         close_in ic;
         match check_trace s with
         | Ok (nev, npass, nhot, nhits) ->
           Fmt.pr
             "trace check: ok (%d events, %d pass spans, %d hot spots, %d analysis \
              cache hits)@."
             nev npass nhot nhits;
           Ok ()
         | Error e -> Error (`Msg ("trace check failed: " ^ e)))
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:
         "Run one proxy with tracing and hot-spot profiling, write a Chrome \
          trace-event JSON (chrome://tracing / Perfetto) and print the profile")
    Term.(const run $ proxy_arg $ build_arg $ small_arg $ out_arg $ check_arg)

(* --- regs ---------------------------------------------------------------- *)

let regs_cmd =
  let run name small csv machine max_regs =
    handle
      (let ( let* ) = Result.bind in
       let* p = find_proxy small name in
       let* machine = parse_machine machine in
       let machine = with_max_regs max_regs machine in
       let builds = E.builds_for p in
       let rows =
         List.map
           (fun b ->
             let c = C.compile ~machine b (Proxy.kernel_for p b.C.b_abi) in
             let hw = C.hw_threads c ~threads:p.Proxy.p_threads in
             let occ =
               Ozo_backend.Machine.occupancy machine ~threads_per_team:hw
                 ~regs_per_thread:c.C.c_regs ~shared_per_team:c.C.c_smem
             in
             (b, c, occ))
           builds
       in
       if csv then begin
         Fmt.pr
           "proxy,build,machine,regs,smem,smem_runtime,smem_globalized,occupancy,\
            limiter,teams_per_sm,spilled,spill_loads,spill_stores,frame_bytes@.";
         List.iter
           (fun (b, c, occ) ->
             let l = c.C.c_lower in
             let module M = Ozo_backend.Machine in
             let module L = Ozo_backend.Lower in
             let module S = Ozo_backend.Smem in
             Fmt.pr "%s,%s,%s,%d,%d,%d,%d,%.3f,%s,%d,%d,%d,%d,%d@." p.Proxy.p_name
               b.C.b_label machine.M.mc_name c.C.c_regs c.C.c_smem
               l.L.lw_layout.S.ly_runtime l.L.lw_layout.S.ly_globalized
               occ.M.occ_fraction
               (M.limiter_name occ.M.occ_limiter)
               occ.M.occ_teams_per_sm l.L.lw_spilled_regs l.L.lw_spill_loads
               l.L.lw_spill_stores l.L.lw_frame_bytes)
           rows
       end
       else begin
         Fmt.pr "%s — per-kernel resources on %s (budget %d regs/thread)@."
           p.Proxy.p_name machine.Ozo_backend.Machine.mc_name
           machine.Ozo_backend.Machine.mc_max_regs_per_thread;
         Fmt.pr "  %-26s %6s %9s %18s %7s %7s %8s %8s@." "build" "#regs" "smem(B)"
           "smem(rt/glob)" "occup" "spilled" "ld/st" "frame(B)";
         List.iter
           (fun (b, c, occ) ->
             let l = c.C.c_lower in
             let module M = Ozo_backend.Machine in
             let module L = Ozo_backend.Lower in
             let module S = Ozo_backend.Smem in
             Fmt.pr "  %-26s %6d %9d %12d/%-5d %6.2f* %7d %4d/%-4d %8d@."
               b.C.b_label c.C.c_regs c.C.c_smem l.L.lw_layout.S.ly_runtime
               l.L.lw_layout.S.ly_globalized occ.M.occ_fraction
               l.L.lw_spilled_regs l.L.lw_spill_loads l.L.lw_spill_stores
               l.L.lw_frame_bytes;
             Fmt.pr "    %a@." M.pp_occupancy occ)
           rows
       end;
       Ok ())
  in
  Cmd.v
    (Cmd.info "regs"
       ~doc:
         "Show the backend's per-kernel resource table (registers, shared \
          memory, occupancy, spills) for every build configuration")
    Term.(const run $ proxy_arg $ small_arg $ csv_arg $ machine_arg $ max_regs_arg)

(* --- vm ------------------------------------------------------------------ *)

let vm_cmd =
  let listing_arg =
    Arg.(value & flag
         & info [ "listing" ]
             ~doc:"Also print the full VM instruction stream per function.")
  in
  let run name build small csv machine max_regs listing =
    handle
      (let ( let* ) = Result.bind in
       let* p = find_proxy small name in
       let* b = build_of_string p build in
       let* machine = parse_machine machine in
       let machine = with_max_regs max_regs machine in
       let c = C.compile ~machine b (Proxy.kernel_for p b.C.b_abi) in
       let module L = Ozo_backend.Lower in
       let module V = Ozo_backend.Vm in
       let l = c.C.c_lower in
       let plan_of fn = List.assoc_opt fn l.L.lw_plan in
       (* per-function rows over the VM program the resource model prices;
          "plan" says whether the threaded executor runs this function
          renamed (spill-free) or falls back to interpretation *)
       let rows =
         List.map (fun fl -> (fl, V.func_stats fl.L.fl_vm)) l.L.lw_funcs
       in
       if csv then begin
         Fmt.pr
           "proxy,build,function,blocks,edges,ops,moves,reloads,spills,regs,\
            frame_bytes,plan,plan_regs@.";
         List.iter
           (fun ((fl : L.func_lowering), (s : V.vstats)) ->
             let vf = fl.L.fl_vm in
             Fmt.pr "%s,%s,%s,%d,%d,%d,%d,%d,%d,%d,%d,%s,%d@." p.Proxy.p_name
               b.C.b_label fl.L.fl_func s.V.vs_blocks s.V.vs_edges s.V.vs_ops
               s.V.vs_moves s.V.vs_reloads s.V.vs_spills vf.V.vf_regs_used
               vf.V.vf_frame_bytes
               (match plan_of fl.L.fl_func with Some _ -> "vm" | None -> "ir")
               (match plan_of fl.L.fl_func with
               | Some pl -> pl.Ozo_vgpu.Engine.rp_nregs
               | None -> 0))
           rows
       end
       else begin
         Fmt.pr "%s / %s — VM form on %s (budget %d regs/thread)@."
           p.Proxy.p_name b.C.b_label machine.Ozo_backend.Machine.mc_name
           machine.Ozo_backend.Machine.mc_max_regs_per_thread;
         Fmt.pr "  %-24s %6s %5s %6s %6s %7s %6s %5s %8s %5s@." "function"
           "blocks" "edges" "ops" "moves" "reloads" "spills" "regs" "frame(B)"
           "exec";
         List.iter
           (fun ((fl : L.func_lowering), (s : V.vstats)) ->
             let vf = fl.L.fl_vm in
             Fmt.pr "  %-24s %6d %5d %6d %6d %7d %6d %5d %8d %5s@." fl.L.fl_func
               s.V.vs_blocks s.V.vs_edges s.V.vs_ops s.V.vs_moves s.V.vs_reloads
               s.V.vs_spills vf.V.vf_regs_used vf.V.vf_frame_bytes
               (match plan_of fl.L.fl_func with Some _ -> "vm" | None -> "ir"))
           rows;
         if listing then
           List.iter
             (fun ((fl : L.func_lowering), _) ->
               Fmt.pr "@.%a@." V.pp_vfunc fl.L.fl_vm)
             rows
       end;
       Ok ())
  in
  Cmd.v
    (Cmd.info "vm"
       ~doc:
         "Dump the register-allocated VM form the threaded executor runs: \
          per-function instruction mix (ops/moves/reloads/spills), resource \
          numbers and whether the threaded path executes it renamed (vm) or \
          interprets it (ir); --listing prints the full stream")
    Term.(const run $ proxy_arg $ build_arg $ small_arg $ csv_arg $ machine_arg
          $ max_regs_arg $ listing_arg)

(* --- ablate -------------------------------------------------------------- *)

let ablate_cmd =
  let run name small =
    handle
      (let ( let* ) = Result.bind in
       let* p = find_proxy small name in
       Fmt.pr "%a" R.pp_ablation (name, E.ablation p);
       Ok ())
  in
  Cmd.v
    (Cmd.info "ablate" ~doc:"Run the per-optimization ablation for one proxy (Fig. 13)")
    Term.(const run $ proxy_arg $ small_arg)

(* --- batches through the drain: sanitize / campaign / serve --------------- *)

module Supervisor = Ozo_resilience.Supervisor
module Fuzz = Ozo_resilience.Fuzz
module Service = Ozo_serve.Service
module Serve_cache = Ozo_serve.Cache

let drained f = match f () with r -> Ok r | exception Service.Service_error e -> Error (`Msg e)

let sanitize_cmd =
  let run name small =
    handle
      (let ( let* ) = Result.bind in
       let* ms, _ =
         drained (fun () ->
             Service.campaign
               { Service.default with
                 Service.sv_small = small; sv_sanitize = true; sv_check_assumes = true }
               ~proxies:[ name ])
       in
       Fmt.pr "%a" R.pp_fig11 (name ^ " [sanitized]", ms);
       let dirty = List.filter (fun m -> m.E.r_fault <> None) ms in
       if dirty = [] then begin
         Fmt.pr "sanitizer: clean (%d builds)@." (List.length ms);
         Ok ()
       end
       else
         Error
           (`Msg
             (Fmt.str "sanitizer found %d issue(s):@.%a" (List.length dirty)
                R.pp_faults dirty)))
  in
  Cmd.v
    (Cmd.info "sanitize"
       ~doc:
         "Run one proxy under every build with the SIMT sanitizer armed; exit \
          non-zero on any finding")
    Term.(const run $ proxy_arg $ small_arg)

let campaign_cmd =
  let resume_arg =
    let doc =
      "Resume from the journal given by --journal: completed rows are replayed \
       verbatim and measurement restarts at the first missing row."
    in
    Arg.(value & flag & info [ "resume" ] ~doc)
  in
  let retries_arg =
    let doc = "Supervisor retries per row for transient faults." in
    Arg.(value & opt int 2 & info [ "retries" ] ~docv:"N" ~doc)
  in
  let deadline_arg =
    let doc =
      "Per-launch wall-clock watchdog deadline in seconds (0 disables)."
    in
    Arg.(value & opt float 30.0 & info [ "deadline" ] ~docv:"SECONDS" ~doc)
  in
  let abort_after_arg =
    let doc =
      "Testing hook: abort the campaign (exit non-zero) after N freshly \
       measured rows, simulating a mid-run crash."
    in
    Arg.(value & opt (some int) None & info [ "abort-after" ] ~docv:"N" ~doc)
  in
  let run name small sanitize inject seed profile journal resume repeat retries
      deadline abort_after domains exec machine =
    handle
      (let ( let* ) = Result.bind in
       let* _ = find_proxy small name in
       let* inject = parse_inject seed inject in
       let* exec = parse_exec exec in
       let* machine = parse_machine machine in
       (match inject with
       | Some spec ->
         Fmt.pr "injecting: %s (seed %d)@." (Ozo_vgpu.Faultinject.spec_to_string spec) seed
       | None -> ());
       let trace = if profile then Trace.make () else Trace.null in
       let opts =
         { Service.default with
           Service.sv_small = small; sv_repeat = repeat; sv_sanitize = sanitize;
           sv_inject = inject; sv_journal = journal; sv_resume = resume;
           sv_abort_after = abort_after; sv_domains = domains; sv_exec = exec;
           sv_machine = machine;
           sv_sup =
             { Supervisor.default with
               Supervisor.sv_retries = retries; sv_deadline_s = deadline;
               sv_seed = seed;
               (* with injection armed, every fault kind is worth one
                  clean retry — injection fires only on attempt 0 *)
               sv_transient =
                 (if inject <> None then Ozo_vgpu.Fault.all_kinds
                  else Supervisor.default.Supervisor.sv_transient) } }
       in
       let* ms, _ = drained (fun () -> Service.campaign ~trace opts ~proxies:[ name ]) in
       Fmt.pr "%a%a" R.pp_fig10 (name, ms) R.pp_fig11 (name, ms);
       if profile then Fmt.pr "%a" R.pp_phases (name, ms);
       Fmt.pr "%a" R.pp_resilience (name, ms);
       Fmt.pr "%a" R.pp_csv_header ();
       List.iter (Fmt.pr "%a" R.pp_csv) ms;
       let dead = List.filter (fun m -> Result.is_error m.E.r_check) ms in
       if dead = [] then Ok ()
       else
         Error
           (`Msg
             (Fmt.str "campaign finished with %d dead row(s):@.%a"
                (List.length dead) R.pp_faults dead)))
  in
  Cmd.v
    (Cmd.info "campaign"
       ~doc:
         "Measure one proxy across all standard builds under the resilience \
          supervisor (watchdog, retry, circuit breaker) and the compile \
          cache, degrading gracefully on faults (optionally injected); exit 0 \
          iff every row ends with a valid check")
    Term.(const run $ proxy_arg $ small_arg $ sanitize_arg $ inject_arg $ seed_arg
          $ profile_arg $ journal_arg $ resume_arg $ repeat_arg $ retries_arg
          $ deadline_arg $ abort_after_arg $ domains_arg $ exec_arg
          $ machine_arg)

let serve_cmd =
  let requests_arg =
    let doc =
      "Request file: one \"PROXY BUILD\" per line ('#' comments, blank lines \
       skipped), drained in order through the compile cache."
    in
    Arg.(required & opt (some string) None & info [ "requests" ] ~docv:"FILE" ~doc)
  in
  let cache_cap_arg =
    let doc =
      "Maximum cached compiled modules; least-recently-used entries are \
       evicted beyond it (default unbounded). Eviction never changes results, \
       only recompile counts."
    in
    Arg.(value & opt (some int) None & info [ "cache-cap" ] ~docv:"N" ~doc)
  in
  let run requests small sanitize repeat cache_cap journal domains machine =
    handle
      (let ( let* ) = Result.bind in
       let* machine = parse_machine machine in
       let* queue = drained (fun () -> Service.load_requests requests) in
       let* () = if queue = [] then Error (`Msg "empty request file") else Ok () in
       let opts =
         { Service.default with
           Service.sv_small = small; sv_sanitize = sanitize; sv_repeat = repeat;
           sv_cache_cap = cache_cap; sv_journal = journal; sv_domains = domains;
           sv_machine = machine }
       in
       let* ms, stats = drained (fun () -> Service.run opts queue) in
       Fmt.pr "%a" R.pp_csv_header ();
       List.iter (Fmt.pr "%a" R.pp_csv) ms;
       Fmt.pr "%a" Service.pp_stats stats;
       let dead = List.filter (fun m -> Result.is_error m.E.r_check) ms in
       if dead = [] then Ok ()
       else
         Error
           (`Msg
             (Fmt.str "service finished with %d dead row(s):@.%a"
                (List.length dead) R.pp_faults dead)))
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Serve a batch of launch requests through the content-addressed \
          compile cache: duplicate compiles are served from cache, rows print \
          as campaign CSV (plus cache/latency columns) followed by \
          \"serve:\"-prefixed stats (hit rate, launches/sec, latency \
          percentiles)")
    Term.(const run $ requests_arg $ small_arg $ sanitize_arg $ repeat_arg
          $ cache_cap_arg $ journal_arg $ domains_arg $ machine_arg)

let bench_service_cmd =
  let run small domains =
    handle
      (let ( let* ) = Result.bind in
       let queue =
         List.concat_map
           (fun p -> List.map (fun b -> (p.Proxy.p_name, b)) E.build_names)
           (Registry.all ())
       in
       let opts = { Service.default with Service.sv_small = small; sv_domains = domains } in
       let cache = Serve_cache.create () in
       let cold_ms, cold = Service.run ~cache opts queue in
       let warm_ms, warm = Service.run ~cache opts queue in
       Fmt.pr "cold: %a" Service.pp_stats cold;
       Fmt.pr "warm: %a" Service.pp_stats warm;
       Fmt.pr "warm speedup: %.2fx launches/sec@."
         (if cold.Service.st_launches_per_sec > 0.0 then
            warm.Service.st_launches_per_sec /. cold.Service.st_launches_per_sec
          else 0.0);
       let strip m = { m with E.r_cache_disp = "-"; r_latency_us = 0.0 } in
       let* () =
         if List.map strip warm_ms = List.map strip cold_ms then Ok ()
         else Error (`Msg "warm rows differ from cold rows")
       in
       if warm.Service.st_cache.Serve_cache.cs_misses = 0 then Ok ()
       else
         Error
           (`Msg
             (Fmt.str "warm pass recompiled %d module(s); expected 0"
                warm.Service.st_cache.Serve_cache.cs_misses)))
  in
  Cmd.v
    (Cmd.info "bench-service"
       ~doc:
         "Benchmark the serving tier: drain every proxy under every standard \
          build twice against one cache, report cold vs warm launches/sec and \
          latency percentiles, check warm rows are bit-identical to cold and \
          exit non-zero if the warm pass recompiled anything")
    Term.(const run $ small_arg $ domains_arg)

(* --- fuzz ----------------------------------------------------------------- *)

let fuzz_cmd =
  let seeds_arg =
    let doc = "Number of random kernels to generate and differentially test." in
    Arg.(value & opt int 25 & info [ "seeds" ] ~docv:"N" ~doc)
  in
  let base_seed_arg =
    let doc = "Base PRNG seed; case i uses seed BASE+i." in
    Arg.(value & opt int 1 & info [ "seed" ] ~docv:"BASE" ~doc)
  in
  let out_arg =
    let doc = "Path for the minimized repro of the first failure." in
    Arg.(value & opt string "fuzz.repro.ir" & info [ "out"; "o" ] ~docv:"FILE" ~doc)
  in
  let plant_arg =
    let doc =
      "Plant a known miscompile in the full pipeline (flip-add: first Add \
       becomes Sub) to prove the fuzzer finds and shrinks it."
    in
    Arg.(value & opt (some string) None & info [ "plant" ] ~docv:"PASS" ~doc)
  in
  let sweep_arg =
    let doc =
      "Add a full-pipeline variant on this machine descriptor ("
      ^ machine_names_doc
      ^ ") to the differential sweep; digests must stay bit-identical across \
         wavefront widths. Repeatable."
    in
    Arg.(value & opt_all string [] & info [ "machine" ] ~docv:"MACHINE" ~doc)
  in
  let run seeds base_seed out plant sweep =
    handle
      (let ( let* ) = Result.bind in
       let* plant =
         match plant with
         | None -> Ok None
         | Some n -> (
           match Fuzz.plant_of_name n with
           | Some p -> Ok (Some p)
           | None -> Error (`Msg ("unknown plant pass " ^ n ^ " (flip-add)")))
       in
       let* sweep =
         List.fold_left
           (fun acc name ->
             Result.bind acc (fun ms ->
                 Result.map (fun m -> ms @ [ m ]) (parse_machine name)))
           (Ok []) sweep
       in
       let r =
         Fuzz.run ?plant ~sweep ~seeds ~base_seed
           ~on_case:(fun seed clean ->
             if not clean then Fmt.pr "seed %d: FAIL@." seed)
           ()
       in
       match r.Fuzz.fz_failures with
       | [] ->
         Fmt.pr "fuzz: %d seeds, all variants agree@." r.Fuzz.fz_seeds;
         Ok ()
       | failures ->
         List.iter
           (fun fl ->
             Fmt.pr "seed %d: %s (shrunk %d -> %d instructions)@."
               fl.Fuzz.fl_seed fl.Fuzz.fl_signature fl.Fuzz.fl_insts_before
               fl.Fuzz.fl_insts_after)
           failures;
         let first = List.hd failures in
         let oc = open_out out in
         output_string oc (Fuzz.repro_text first);
         close_out oc;
         Fmt.pr "wrote minimized repro to %s@." out;
         Error
           (`Msg
             (Fmt.str "fuzz: %d of %d seeds disagree across pipelines"
                (List.length failures) r.Fuzz.fz_seeds)))
  in
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:
         "Differentially fuzz the compiler: generate random well-typed \
          kernels, compile under O0 / full / spilled-regalloc pipelines, \
          demand bit-identical results, and shrink any failure to a minimal \
          repro")
    Term.(const run $ seeds_arg $ base_seed_arg $ out_arg $ plant_arg
          $ sweep_arg)

(* --- machines -------------------------------------------------------------- *)

let machines_cmd =
  let run () =
    Fmt.pr "%-6s %5s %5s %7s %8s %8s %14s %13s %9s@." "name" "warp" "SMs"
      "thr/SM" "warps/SM" "teams/SM" "regfile(unit)" "smem(unit)" "max-regs";
    List.iter
      (fun (m : Machine.t) ->
        Fmt.pr "%-6s %5d %5d %7d %8d %8d %8d(%4d) %7d(%4d) %9d@."
          m.Machine.mc_name m.Machine.mc_warp_size m.Machine.mc_n_sm
          m.Machine.mc_max_threads_per_sm m.Machine.mc_max_warps_per_sm
          m.Machine.mc_max_teams_per_sm m.Machine.mc_regfile_per_sm
          m.Machine.mc_reg_alloc_unit m.Machine.mc_shared_per_sm
          m.Machine.mc_shared_alloc_unit m.Machine.mc_max_regs_per_thread)
      Machine.all;
    0
  in
  Cmd.v
    (Cmd.info "machines"
       ~doc:
         "List the machine descriptors (wavefront width, SM count, residency \
          ceilings, register/SMem allocation granularities) every \
          machine-aware subcommand accepts via --machine")
    Term.(const run $ const ())

(* --- tune ------------------------------------------------------------------- *)

let tune_cmd =
  let csv_arg =
    Arg.(value & flag
         & info [ "csv" ]
             ~doc:"Emit one CSV row per scored candidate instead of the table.")
  in
  let tune_seed_arg =
    let doc = "Seed for the deterministic tie-break among equal-scored shapes." in
    Arg.(value & opt int 0 & info [ "seed" ] ~docv:"N" ~doc)
  in
  let measure_arg =
    let doc =
      "Measured refinement: launch the top K model candidates for real and \
       pick the lowest simulated kernel time among those that validate \
       (0 = model-only)."
    in
    Arg.(value & opt int 0 & info [ "measure" ] ~docv:"K" ~doc)
  in
  let journal_arg =
    let doc = "Append the verdict as one JSON line to this file." in
    Arg.(value & opt (some string) None & info [ "journal" ] ~docv:"FILE" ~doc)
  in
  let run name build small seed measure csv journal domains exec machine =
    handle
      (let ( let* ) = Result.bind in
       let* p = find_proxy small name in
       let* exec = parse_exec exec in
       let* machine = parse_machine machine in
       let* v =
         match
           Tune.search ~seed ~measure_top:measure ~domains ~exec ~machine p
             ~build_name:build
         with
         | v -> Ok v
         | exception Tune.Tune_error e -> Error (`Msg e)
       in
       if csv then begin
         Fmt.pr "%a" Tune.pp_csv_header ();
         Fmt.pr "%a" Tune.pp_csv v
       end
       else Fmt.pr "%a" Tune.pp_verdict v;
       (match journal with
       | Some path -> Tune.append_journal ~path v
       | None -> ());
       Ok ())
  in
  Cmd.v
    (Cmd.info "tune"
       ~doc:
         "Autotune the launch shape (teams x threads) of one proxy/build on \
          one machine: candidates are wavefront multiples covering the \
          default iteration space, scored by the occupancy model plus a \
          probe-calibrated cycle prediction, with deterministic seeded \
          tie-breaks and opt-in measured refinement of the top K")
    Term.(const run $ proxy_arg $ build_arg $ small_arg $ tune_seed_arg
          $ measure_arg $ csv_arg $ journal_arg $ domains_arg $ exec_arg
          $ machine_arg)

(* --- matrix ----------------------------------------------------------------- *)

let matrix_cmd =
  let csv_arg =
    Arg.(value & flag
         & info [ "csv" ] ~doc:"Emit the machine-readable matrix CSV only.")
  in
  let machines_arg =
    let doc =
      "Comma-separated machine set to sweep (default "
      ^ String.concat "," Matrix.default_machines ^ ")."
    in
    Arg.(value & opt (some string) None & info [ "machines" ] ~docv:"LIST" ~doc)
  in
  let proxy_opt_arg =
    let doc = "Restrict the sweep to this proxy (repeatable; default all)." in
    Arg.(value & opt_all string [] & info [ "proxy" ] ~docv:"PROXY" ~doc)
  in
  let run small csv machines proxies domains exec =
    handle
      (let ( let* ) = Result.bind in
       let* exec = parse_exec exec in
       let machines =
         match machines with
         | None -> Matrix.default_machines
         | Some s ->
           List.filter (fun x -> x <> "") (String.split_on_char ',' s)
       in
       let proxies = match proxies with [] -> None | ps -> Some ps in
       let* t =
         drained (fun () ->
             Matrix.run ~machines ?proxies
               { Service.default with
                 Service.sv_small = small; sv_domains = domains; sv_exec = exec })
       in
       if csv then begin
         Fmt.pr "%a" Matrix.pp_csv_header ();
         Fmt.pr "%a" Matrix.pp_csv t
       end
       else begin
         Fmt.pr "%a" Matrix.pp_table t;
         Fmt.pr "@.%a" Matrix.pp_csv_header ();
         Fmt.pr "%a" Matrix.pp_csv t
       end;
       let bad = List.filter (fun c -> not (Matrix.cell_ok c)) t.Matrix.mx_cells in
       if bad = [] then Ok ()
       else
         Error
           (`Msg
             (Fmt.str "matrix finished with %d failing cell(s)"
                (List.length bad))))
  in
  Cmd.v
    (Cmd.info "matrix"
       ~doc:
         "Run the cross-machine campaign matrix: every proxy x build x \
          machine through one shared compile cache, reporting per-machine \
          relative performance (Old RT = 1.00), application efficiency and \
          the Pennycook performance-portability harmonic mean")
    Term.(const run $ small_arg $ csv_arg $ machines_arg $ proxy_opt_arg
          $ domains_arg $ exec_arg)

let () =
  let doc = "reproduction of the near-zero-overhead OpenMP GPU runtime (IPDPS'22)" in
  exit
    (Cmd.eval'
       (Cmd.group (Cmd.info "ozo_cli" ~doc)
          [ list_cmd; run_cmd; inspect_cmd; remarks_cmd; trace_cmd; regs_cmd;
            vm_cmd; ablate_cmd; sanitize_cmd; campaign_cmd; serve_cmd;
            bench_service_cmd; fuzz_cmd; machines_cmd; tune_cmd; matrix_cmd ]))
