(* Performance-portability differential suite (DESIGN.md §16).

   The machine descriptor changes *what the simulation computes about*
   a launch — wavefront width drives reconvergence, coalescing buckets,
   uniform-strand scalarization and the occupancy arithmetic — but it
   must never change the *answer*. Per machine (most importantly the
   64-wide MI250), every proxy under every standard build must produce
   the same simulated results, the same per-team counters and the same
   campaign CSV bytes across [--domains {1,4}] and [--exec {ir,vm}].

   On top of bit-identity, a few cross-machine facts are pinned: the
   64-wide descriptor really does halve the warp count of a 32-wide
   machine (fewer warp instructions for the same work), machines are
   distinct cache keys in the serving tier, and journal rows written
   before the machine column existed still decode (as "vgpu"). *)

module C = Ozo_core.Codesign
module E = Ozo_harness.Experiments
module R = Ozo_harness.Report
module Proxy = Ozo_proxies.Proxy
module Registry = Ozo_proxies.Registry
module Machine = Ozo_backend.Machine
module Engine = Ozo_vgpu.Engine
module Counters = Ozo_vgpu.Counters
module Device = Ozo_vgpu.Device
module Fault = Ozo_vgpu.Fault

let tc = Alcotest.test_case

let machines = [ Machine.v100; Machine.mi250; Machine.h100 ]

(* coverage of all code shapes: the SPMDized old and new runtimes, the
   runtime-free CUDA lowering, and — crucially for the wavefront width —
   old-rt under the baseline pipeline, which stays in *generic mode*
   where the runtime's worker count is [bdim - warp_size] *)
let baseline_old_rt =
  { C.old_rt_nightly with C.b_pipe = Ozo_opt.Pipeline.baseline }

let builds_under_test p =
  [ C.old_rt_nightly; baseline_old_rt; E.new_rt_for p; C.cuda ]

(* launch once at a given (machine, domains, exec) and return everything
   observable: per-team counters, totals, and the differential check *)
let run_once ~machine ~domains ~exec (p : Proxy.t) (b : C.build) :
    (Engine.result * (unit, string) result, Fault.t) result =
  let c = C.compile ~machine ~exec b (Proxy.kernel_for p b.C.b_abi) in
  let dev = C.device c in
  let inst = p.Proxy.p_setup dev in
  let opts = { Device.Launch_opts.default with Device.Launch_opts.domains } in
  let hw = C.hw_threads c ~threads:p.Proxy.p_threads in
  match
    Device.launch ~opts dev ~teams:p.Proxy.p_teams ~threads:hw
      inst.Proxy.i_args
  with
  | Ok r -> Ok (r, inst.Proxy.i_check ())
  | Error f -> Error f

let check_str = function Ok () -> "ok" | Error e -> "FAILED: " ^ e

let same_outcome ctx a b =
  match (a, b) with
  | Ok (ra, ca), Ok (rb, cb) ->
    Alcotest.(check int)
      (ctx ^ ": team count")
      (List.length ra.Engine.r_counters)
      (List.length rb.Engine.r_counters);
    List.iteri
      (fun i (x, y) ->
        if not (Counters.equal x y) then
          Alcotest.failf "%s: team %d counters diverge:@.%a@.vs@.%a" ctx i
            Counters.pp x Counters.pp y)
      (List.combine ra.Engine.r_counters rb.Engine.r_counters);
    if not (Counters.equal ra.Engine.r_total rb.Engine.r_total) then
      Alcotest.failf "%s: totals diverge" ctx;
    Alcotest.(check string) (ctx ^ ": check") (check_str ca) (check_str cb)
  | Error fa, Error fb ->
    Alcotest.(check string)
      (ctx ^ ": fault")
      (Fault.to_line fa) (Fault.to_line fb)
  | Ok _, Error f ->
    Alcotest.failf "%s: reference ok but variant faulted: %s" ctx
      (Fault.to_line f)
  | Error f, Ok _ ->
    Alcotest.failf "%s: reference faulted (%s) but variant ok" ctx
      (Fault.to_line f)

(* --- bit-identity per machine across domains x exec ----------------------- *)

let test_bit_identity_per_machine () =
  List.iter
    (fun machine ->
      List.iter
        (fun p ->
          List.iter
            (fun b ->
              let reference =
                run_once ~machine ~domains:1 ~exec:Engine.Exec_ir p b
              in
              (match reference with
              | Ok (_, Error e) ->
                Alcotest.failf "%s/%s on %s: check failed: %s" p.Proxy.p_name
                  b.C.b_label machine.Machine.mc_name e
              | Ok (_, Ok ()) -> ()
              | Error f ->
                Alcotest.failf "%s/%s on %s: faulted: %s" p.Proxy.p_name
                  b.C.b_label machine.Machine.mc_name (Fault.to_line f));
              List.iter
                (fun (domains, exec, tag) ->
                  same_outcome
                    (Fmt.str "%s/%s on %s %s" p.Proxy.p_name b.C.b_label
                       machine.Machine.mc_name tag)
                    reference
                    (run_once ~machine ~domains ~exec p b))
                [ (4, Engine.Exec_ir, "domains=4/ir");
                  (1, Engine.Exec_vm, "domains=1/vm");
                  (4, Engine.Exec_vm, "domains=4/vm") ])
            (builds_under_test p))
        (Registry.all_small ()))
    machines

(* --- campaign CSV bytes identical across domains x exec ------------------- *)

let test_csv_bytes_identical_per_machine () =
  List.iter
    (fun machine ->
      let p = Registry.find_exn "xsbench" in
      let b = E.new_rt_for p in
      (* the domains and exec columns record how the row ran; everything
         else must agree byte for byte *)
      let normalize m =
        { m with E.r_phase_us = []; r_domains = 1; r_exec = "ir" }
      in
      let csv m = Fmt.str "%a" R.pp_csv (normalize m) in
      let reference =
        E.measure_request p (E.request_for ~machine ~domains:1 p b)
      in
      Alcotest.(check string)
        (machine.Machine.mc_name ^ ": machine recorded")
        machine.Machine.mc_name reference.E.r_machine;
      List.iter
        (fun (domains, exec) ->
          let m =
            E.measure_request p (E.request_for ~machine ~domains ~exec p b)
          in
          Alcotest.(check string)
            (Fmt.str "%s csv bytes (domains=%d)" machine.Machine.mc_name
               domains)
            (csv reference) (csv m))
        [ (4, Engine.Exec_ir); (1, Engine.Exec_vm); (4, Engine.Exec_vm) ])
    machines

(* --- the wavefront width is real ------------------------------------------ *)

(* 64-wide wavefronts must halve the warp count of the same SPMD launch
   on a 32-wide machine — fewer (wider) warp instructions for identical
   results. Warp-width independence of the *answer* is covered above;
   here we pin that the width actually reaches the engine. *)
let test_wavefront_width_reaches_engine () =
  let p = Registry.find_exn "xsbench" in
  let b = E.new_rt_for p in
  let narrow =
    E.measure_request p (E.request_for ~machine:Machine.v100 p b)
  in
  let wide = E.measure_request p (E.request_for ~machine:Machine.mi250 p b) in
  Alcotest.(check bool) "both valid" true
    (narrow.E.r_check = Ok () && wide.E.r_check = Ok ());
  let wi m = m.E.r_counters.Counters.warp_instructions in
  if not (wi wide < wi narrow) then
    Alcotest.failf "64-wide run issued %d warp instructions, 32-wide %d"
      (wi wide) (wi narrow)

(* generic mode hosts the main thread in one extra warp — one *wavefront*
   of hardware threads, so the worker count follows the machine. Only
   un-SPMDized builds stay generic, hence the baseline pipeline. *)
let test_generic_mode_warp_extends_by_width () =
  let p = Registry.find_exn "xsbench" in
  let b = baseline_old_rt in
  let hw machine =
    let c = C.compile ~machine b (Proxy.kernel_for p b.C.b_abi) in
    (match c.C.c_mode with
    | Ozo_opt.Spmdize.Generic -> ()
    | Ozo_opt.Spmdize.Spmd ->
      Alcotest.failf "baseline old-rt unexpectedly SPMDized on %s"
        machine.Machine.mc_name);
    C.hw_threads c ~threads:p.Proxy.p_threads
  in
  Alcotest.(check int) "v100 generic hw threads"
    (p.Proxy.p_threads + 32) (hw Machine.v100);
  Alcotest.(check int) "mi250 generic hw threads"
    (p.Proxy.p_threads + 64) (hw Machine.mi250)

(* --- machines are distinct serving-tier cache keys -------------------------- *)

let test_machine_in_cache_key () =
  let p = Registry.find_exn "xsbench" in
  let b = E.new_rt_for p in
  let key machine =
    let linked = C.link_stage ~machine b (Proxy.kernel_for p b.C.b_abi) in
    C.Compile_key.of_linked ~machine b linked
  in
  let k32 = key Machine.v100 and k64 = key Machine.mi250 in
  if k32 <> key Machine.v100 then
    Alcotest.fail "cache key is not deterministic";
  if k32 = k64 then
    Alcotest.fail "v100 and mi250 compiles share a cache key"

(* --- journal compatibility -------------------------------------------------- *)

(* a measurement journaled before the machine column existed must decode
   as machine "vgpu"; a journaled mi250 row must round-trip its name *)
let find_sub hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i =
    if i + nn > nh then None
    else if String.sub hay i nn = needle then Some i
    else go (i + 1)
  in
  go 0

let test_journal_machine_tolerant_decode () =
  let module J = Ozo_resilience.Journal in
  let p = Registry.find_exn "xsbench" in
  let m =
    E.measure_request p (E.request_for ~machine:Machine.mi250 p (E.new_rt_for p))
  in
  let path = Filename.temp_file "ozo_portability" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      let w = J.start ~path ~fingerprint:"portability-test" in
      J.append w ~seq:0 m;
      J.close w;
      (match J.load ~path with
      | Ok (_, [ e ]) ->
        Alcotest.(check string) "machine round-trips" "mi250"
          e.J.e_m.E.r_machine
      | Ok (_, es) -> Alcotest.failf "expected 1 entry, got %d" (List.length es)
      | Error e -> Alcotest.failf "load failed: %s" e);
      (* splice the machine field out to simulate a pre-matrix journal *)
      let ic = open_in path in
      let s = really_input_string ic (in_channel_length ic) in
      close_in ic;
      let needle = ",\"machine\":\"mi250\"" in
      let legacy =
        match find_sub s needle with
        | None -> Alcotest.fail "journal line lacks the machine field"
        | Some i ->
          String.sub s 0 i
          ^ String.sub s
              (i + String.length needle)
              (String.length s - i - String.length needle)
      in
      let oc = open_out path in
      output_string oc legacy;
      close_out oc;
      match J.load ~path with
      | Ok (_, [ e ]) ->
        Alcotest.(check string) "absent machine defaults" "vgpu"
          e.J.e_m.E.r_machine
      | Ok (_, es) -> Alcotest.failf "expected 1 entry, got %d" (List.length es)
      | Error e -> Alcotest.failf "legacy load failed: %s" e)

let suite =
  [ tc "per machine: domains x exec bit-identical (incl. 64-wide)" `Quick
      test_bit_identity_per_machine;
    tc "per machine: campaign csv bytes identical" `Quick
      test_csv_bytes_identical_per_machine;
    tc "64-wide wavefronts issue fewer warp instructions" `Quick
      test_wavefront_width_reaches_engine;
    tc "generic-mode runtime warp follows the wavefront width" `Quick
      test_generic_mode_warp_extends_by_width;
    tc "machine is part of the serving-tier cache key" `Quick
      test_machine_in_cache_key;
    tc "journal: machine column round-trips, absent defaults to vgpu" `Quick
      test_journal_machine_tolerant_decode ]
