(* Threaded-code executor: differential bit-identity tests.

   The contract under test (DESIGN.md §15): `--exec vm` changes *only*
   wall-clock time. Counters, simulated results, faults (down to the
   faulting site), injection behaviour, sanitizer verdicts and campaign
   CSV rows must be byte-for-byte what the IR interpreter produces, for
   every proxy, every pipeline strength and every domain count — spilled
   allocations included (those functions fall back to interpretation).

   Also here: the seeded property suite for [Vm.sequentialize_copies]
   (cycle-breaking temps must preserve parallel-copy semantics, both on
   random copy sets and on every phi edge of irgen-generated kernels)
   and a VM-shape golden pin for one proxy. *)

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
module Machine = Ozo_backend.Machine
module Backend = Ozo_backend.Lower
module Regalloc = Ozo_backend.Regalloc
module Vm = Ozo_backend.Vm
module Irgen = Ozo_resilience.Irgen
module Prng = Ozo_util.Prng
open Ozo_ir.Types

let tc = Alcotest.test_case

(* --- launch helpers ------------------------------------------------------ *)

let run_once ?inject ?(sanitize = false) ?(domains = 1) ?machine ~exec
    (p : Proxy.t) (b : C.build) :
    (Engine.result * (unit, string) result, Fault.t) result =
  let c = C.compile ?machine ~exec b (Proxy.kernel_for p b.C.b_abi) in
  let dev = C.device ~sanitize c in
  let inst = p.Proxy.p_setup dev in
  let opts =
    { Device.Launch_opts.default with Device.Launch_opts.domains; inject }
  in
  let hw = C.hw_threads c ~threads:p.Proxy.p_threads in
  match
    Device.launch ~opts dev ~teams:p.Proxy.p_teams ~threads:hw inst.Proxy.i_args
  with
  | Ok r -> Ok (r, inst.Proxy.i_check ())
  | Error f -> Error f

let check_str = function Ok () -> "ok" | Error e -> "FAILED: " ^ e

let fault_sig (f : Fault.t) =
  Fmt.str "%s:%s@%a/%a/%a team=%a" (Fault.kind_name f.Fault.f_kind)
    f.Fault.f_msg
    Fmt.(option ~none:(any "?") string) f.Fault.f_fn
    Fmt.(option ~none:(any "?") string) f.Fault.f_blk
    Fmt.(option ~none:(any "?") int) f.Fault.f_idx
    Fmt.(option ~none:(any "?") int) f.Fault.f_team

(* assert two launches are observably identical *)
let same_outcome ctx ir vm =
  match (ir, vm) with
  | Ok (ri, ci), Ok (rv, cv) ->
    Alcotest.(check int)
      (ctx ^ ": team count")
      (List.length ri.Engine.r_counters)
      (List.length rv.Engine.r_counters);
    List.iteri
      (fun i (a, b) ->
        if not (Counters.equal a b) then
          Alcotest.failf "%s: team %d counters diverge:@.%a@.vs@.%a" ctx i
            Counters.pp a Counters.pp b)
      (List.combine ri.Engine.r_counters rv.Engine.r_counters);
    if not (Counters.equal ri.Engine.r_total rv.Engine.r_total) then
      Alcotest.failf "%s: totals diverge" ctx;
    Alcotest.(check string) (ctx ^ ": check") (check_str ci) (check_str cv)
  | Error fi, Error fv ->
    Alcotest.(check string) (ctx ^ ": fault") (fault_sig fi) (fault_sig fv)
  | Ok _, Error f ->
    Alcotest.failf "%s: ir ok but vm faulted: %s" ctx (Fault.to_line f)
  | Error f, Ok _ ->
    Alcotest.failf "%s: ir faulted (%s) but vm ok" ctx (Fault.to_line f)

(* pipeline variants per the issue: O0, baseline and the full pipeline *)
let pipes p = [ Pipeline.o0; Pipeline.baseline; (E.new_rt_for p).C.b_pipe ]

let builds_under_test p =
  List.map (fun pipe -> { (E.new_rt_for p) with C.b_pipe = pipe }) (pipes p)
  @ [ C.old_rt_nightly ]

(* --- bit-identity: every proxy x pipeline x domain count ----------------- *)

let test_bit_identity () =
  List.iter
    (fun p ->
      List.iter
        (fun b ->
          List.iter
            (fun d ->
              let ctx =
                Fmt.str "%s/%s/%s domains=%d" p.Proxy.p_name b.C.b_label
                  b.C.b_pipe.Pipeline.name d
              in
              same_outcome ctx
                (run_once ~domains:d ~exec:Engine.Exec_ir p b)
                (run_once ~domains:d ~exec:Engine.Exec_vm p b))
            [ 1; 4 ])
        (builds_under_test p))
    (Registry.all_small ())

(* --- spilled allocations fall back to interpretation --------------------- *)

let test_spill_fallback_identical () =
  let machine = Machine.with_reg_budget 8 Machine.vgpu in
  List.iter
    (fun p ->
      let b = E.new_rt_for p in
      same_outcome
        (Fmt.str "%s spill8" p.Proxy.p_name)
        (run_once ~machine ~exec:Engine.Exec_ir p b)
        (run_once ~machine ~exec:Engine.Exec_vm p b))
    (Registry.all_small ())

(* --- sanitizer parity ----------------------------------------------------- *)

let test_sanitizer_parity () =
  List.iter
    (fun p ->
      let b = E.new_rt_for p in
      same_outcome
        (Fmt.str "%s sanitized" p.Proxy.p_name)
        (run_once ~sanitize:true ~exec:Engine.Exec_ir p b)
        (run_once ~sanitize:true ~exec:Engine.Exec_vm p b))
    (Registry.all_small ())

(* --- fault injection ------------------------------------------------------ *)

let test_injection_site_identical () =
  List.iter
    (fun seed ->
      let spec =
        { Faultinject.s_action = Faultinject.Corrupt_load; s_fn = None;
          s_nth = None; s_seed = seed }
      in
      let p = Registry.find_exn "gridmini" in
      let b = C.old_rt_nightly in
      same_outcome
        (Fmt.str "inject seed %d" seed)
        (run_once ~inject:spec ~exec:Engine.Exec_ir p b)
        (run_once ~inject:spec ~exec:Engine.Exec_vm p b))
    [ 3; 42 ]

(* --- CSV byte identity through the harness -------------------------------- *)

let test_csv_bytes_identical () =
  let p = Registry.find_exn "xsbench" in
  let b = E.new_rt_for p in
  (* normalize what legitimately differs between the two runs: host
     wall-clock phase times (absent here: untraced) and the exec column,
     which records how the row ran *)
  let normalize m = { m with E.r_phase_us = []; r_exec = "ir" } in
  let csv m = Fmt.str "%a" R.pp_csv (normalize m) in
  let mi = E.measure_request p (E.request_for ~exec:Engine.Exec_ir p b) in
  let mv = E.measure_request p (E.request_for ~exec:Engine.Exec_vm p b) in
  Alcotest.(check string) "exec path recorded" "vm" mv.E.r_exec;
  Alcotest.(check string) "csv bytes identical" (csv mi) (csv mv)

(* --- the compile key fingerprints the exec path --------------------------- *)

let test_compile_key_exec_sensitive () =
  let p = Registry.find_exn "xsbench" in
  let b = E.new_rt_for p in
  let linked = C.link_stage b (Proxy.kernel_for p b.C.b_abi) in
  let key e = C.Compile_key.of_linked ~machine:Machine.vgpu ~exec:e b linked in
  Alcotest.(check bool)
    "ir and vm artifacts never alias in the cache" false
    (C.Compile_key.equal (key Engine.Exec_ir) (key Engine.Exec_vm));
  Alcotest.(check bool)
    "key is deterministic" true
    (C.Compile_key.equal (key Engine.Exec_vm) (key Engine.Exec_vm))

(* --- campaign journal fingerprint ----------------------------------------- *)

let test_campaign_fingerprint_exec () =
  let module Service = Ozo_serve.Service in
  let fp exec =
    Service.campaign_fingerprint
      { Service.default with Service.sv_exec = exec }
      ~proxies:[ "xsbench" ]
  in
  let fp_ir = fp Engine.Exec_ir and fp_vm = fp Engine.Exec_vm in
  let has_suffix ~suffix s =
    let ls = String.length s and lx = String.length suffix in
    ls >= lx && String.sub s (ls - lx) lx = suffix
  in
  Alcotest.(check bool) "exec in fingerprint" false (fp_ir = fp_vm);
  Alcotest.(check bool) "ir spelled out" true
    (has_suffix ~suffix:";exec=ir" fp_ir);
  Alcotest.(check bool) "vm spelled out" true
    (has_suffix ~suffix:";exec=vm" fp_vm)

(* --- parallel-copy sequentialization: seeded property --------------------- *)

(* Execute a sequentialized copy list over a symbolic environment and
   check parallel semantics: each destination ends with the value its
   source held *before* any copy ran, and untouched locations keep
   theirs. Sources/dests range over a small loc pool so collisions (and
   cycles) are common. *)
let locs =
  List.init 4 (fun i -> Regalloc.Phys i) @ [ Regalloc.Slot 0; Regalloc.Slot 1 ]

let eval env = function
  | Vm.Vloc l -> (
    match List.assoc_opt l env with
    | Some v -> v
    | None -> Fmt.str "init(%a)" Vm.pp_loc l)
  | o -> Fmt.str "%a" Vm.pp_opd o

let exec_copies env0 (seq : (Regalloc.loc * Vm.vopd) list) =
  List.fold_left (fun env (d, s) -> (d, eval env s) :: env) env0 seq

let random_copies rng =
  (* distinct destinations (phis define each register once per block) *)
  let n = 1 + Prng.int rng (List.length locs) in
  let dests =
    List.filteri (fun i _ -> i < n)
      (List.sort
         (fun _ _ -> if Prng.int rng 2 = 0 then 1 else -1)
         locs)
  in
  List.map
    (fun d ->
      let s =
        match Prng.int rng 4 with
        | 0 -> Vm.Vint (Int64.of_int (Prng.int rng 100))
        | _ -> Vm.Vloc (List.nth locs (Prng.int rng (List.length locs)))
      in
      (d, s))
    dests

let check_parallel_semantics ctx (copies : (Regalloc.loc * Vm.vopd) list) seq =
  (* the cycle-breaking temp must be fresh: never a destination *)
  List.iter
    (fun (d, _) ->
      if List.exists (fun (d', _) -> d' = d) copies then ()
      else if not (List.exists (fun (_, s) -> s = Vm.Vloc d) seq) then
        Alcotest.failf "%s: temp %a written but never read" ctx Vm.pp_loc d)
    seq;
  let final = exec_copies [] seq in
  List.iter
    (fun (d, s) ->
      let expect = eval [] s in
      let got = eval final (Vm.Vloc d) in
      if got <> expect then
        Alcotest.failf "%s: dest %a ends with %s, want %s@.copies: %a@.seq: %a"
          ctx Vm.pp_loc d got expect
          Fmt.(list ~sep:semi (pair Vm.pp_loc Vm.pp_opd))
          copies
          Fmt.(list ~sep:semi (pair Vm.pp_loc Vm.pp_opd))
          seq)
    copies;
  (* locations that are neither destinations nor temps stay untouched *)
  List.iter
    (fun l ->
      if not (List.exists (fun (d, _) -> d = l) seq) then
        Alcotest.(check string)
          (ctx ^ ": bystander untouched")
          (eval [] (Vm.Vloc l))
          (eval final (Vm.Vloc l)))
    locs

let test_sequentialize_property () =
  let temp_pool =
    [ Regalloc.Phys 90; Regalloc.Phys 91; Regalloc.Phys 92 ]
  in
  let cycles_broken = ref 0 in
  for seed = 1 to 500 do
    let rng = Prng.create seed in
    let copies = random_copies rng in
    let k = ref 0 in
    let temp () =
      incr cycles_broken;
      let t = List.nth temp_pool (min !k (List.length temp_pool - 1)) in
      incr k;
      t
    in
    let seq = Vm.sequentialize_copies ~temp copies in
    check_parallel_semantics (Fmt.str "seed %d" seed) copies seq
  done;
  (* the pool above makes swaps common: the temp path must actually run *)
  Alcotest.(check bool)
    "cycle breaker exercised" true (!cycles_broken > 0)

(* --- sequentialization on real phi edges (via irgen) ---------------------- *)

(* For generated kernels, rebuild each edge's parallel copy straight from
   the optimized function's phis (resolving operands exactly as the
   emitter does) and check the emitted V_copy sequence implements it. *)
let test_sequentialize_on_irgen_edges () =
  let edges_checked = ref 0 in
  for seed = 1 to 12 do
    let m = Irgen.generate ~seed in
    let opt = Pipeline.run Pipeline.full m in
    let layout = Ozo_backend.Smem.of_module opt in
    let lower = Backend.run ~machine:Machine.vgpu opt ~kernel:Irgen.kernel_name in
    List.iter
      (fun (fl : Backend.func_lowering) ->
        let ra = fl.Backend.fl_ra in
        let f =
          List.find (fun f -> f.f_name = fl.Backend.fl_func) opt.m_funcs
        in
        let resolve = function
          | Reg r -> Vm.Vloc (Regalloc.loc r ra)
          | Imm_int (v, _) -> Vm.Vint v
          | Imm_float v -> Vm.Vfloat v
          | Global_addr g -> (
            match
              List.find_opt
                (fun s -> s.Ozo_backend.Smem.sl_name = g)
                layout.Ozo_backend.Smem.ly_slots
            with
            | Some s -> Vm.Vshared (g, s.Ozo_backend.Smem.sl_offset)
            | None -> Vm.Vglobal g)
          | Func_addr fn -> Vm.Vfunc fn
          | Undef _ -> Vm.Vundef
        in
        List.iter
          (fun (b : block) ->
            List.iter
              (fun succ ->
                match find_block f succ with
                | None -> ()
                | Some sb ->
                  let copies =
                    List.filter_map
                      (fun p ->
                        Option.map
                          (fun o -> (Regalloc.loc p.phi_reg ra, resolve o))
                          (List.assoc_opt b.b_label p.phi_incoming))
                      sb.b_phis
                  in
                  (* distinct-dest edges only: a dead phi defaults to
                     phys 0 and may alias a live one — order-dependent
                     by construction, not a parallel copy *)
                  let dests = List.map fst copies in
                  if copies <> [] && List.length (List.sort_uniq compare dests) = List.length dests
                  then begin
                    incr edges_checked;
                    let vb =
                      List.find
                        (fun vb -> vb.Vm.vb_label = b.b_label)
                        fl.Backend.fl_vm.Vm.vf_blocks
                    in
                    let seq =
                      List.map
                        (function
                          | Vm.V_copy (d, s) -> (d, s)
                          | i ->
                            Alcotest.failf "non-copy %a on edge %s->%s"
                              Vm.pp_vinst i b.b_label succ)
                        (List.assoc succ vb.Vm.vb_term.Vm.vt_edges)
                    in
                    check_parallel_semantics
                      (Fmt.str "irgen seed %d %s->%s" seed b.b_label succ)
                      copies seq
                  end)
              (term_succs b.b_term))
          f.f_blocks)
      lower.Backend.lw_funcs
  done;
  Alcotest.(check bool)
    "generated kernels produced phi edges" true (!edges_checked > 0)

(* --- VM-shape golden pin --------------------------------------------------- *)

(* One proxy's VM form, pinned as the `ozo vm --csv` row. A change here is
   a real backend change: regenerate with
     OZO_GOLDEN_REGEN=1 dune runtest --force 2>&1 | grep GOLDEN-VM
   and paste the new row. *)
let golden_vm_row =
  "xsbench,New RT,xs_lookup_kernel,12,2,152,2,0,0,21,0,vm,21"

let vm_row (p : Proxy.t) (b : C.build) =
  let c = C.compile b (Proxy.kernel_for p b.C.b_abi) in
  let l = c.C.c_lower in
  let fl = List.hd l.Backend.lw_funcs in
  let s = Vm.func_stats fl.Backend.fl_vm in
  let vf = fl.Backend.fl_vm in
  let plan = List.assoc_opt fl.Backend.fl_func l.Backend.lw_plan in
  Fmt.str "%s,%s,%s,%d,%d,%d,%d,%d,%d,%d,%d,%s,%d" p.Proxy.p_name b.C.b_label
    fl.Backend.fl_func s.Vm.vs_blocks s.Vm.vs_edges s.Vm.vs_ops s.Vm.vs_moves
    s.Vm.vs_reloads s.Vm.vs_spills vf.Vm.vf_regs_used vf.Vm.vf_frame_bytes
    (match plan with Some _ -> "vm" | None -> "ir")
    (match plan with Some pl -> pl.Engine.rp_nregs | None -> 0)

let test_vm_shape_golden () =
  let p = Registry.find_exn ~small:true "xsbench" in
  let row = vm_row p (E.new_rt_for p) in
  if Sys.getenv_opt "OZO_GOLDEN_REGEN" <> None then
    Fmt.pr "GOLDEN-VM %s@." row;
  Alcotest.(check string) "xsbench VM shape" golden_vm_row row

let suite =
  [ tc "vm = ir for every proxy x pipeline x domains" `Quick test_bit_identity;
    tc "vm = ir under an 8-register budget (spill fallback)" `Quick
      test_spill_fallback_identical;
    tc "sanitizer verdicts identical on the vm path" `Quick
      test_sanitizer_parity;
    tc "injected site identical on the vm path" `Quick
      test_injection_site_identical;
    tc "campaign csv rows byte-identical across exec paths" `Quick
      test_csv_bytes_identical;
    tc "compile key fingerprints the exec path" `Quick
      test_compile_key_exec_sensitive;
    tc "campaign journal fingerprint carries the exec path" `Quick
      test_campaign_fingerprint_exec;
    tc "sequentialized copies preserve parallel semantics (seeded)" `Quick
      test_sequentialize_property;
    tc "sequentialization correct on irgen phi edges" `Quick
      test_sequentialize_on_irgen_edges;
    tc "VM shape golden pin (xsbench)" `Quick test_vm_shape_golden ]
