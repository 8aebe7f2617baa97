(* Local cleanups: constant folding, instruction combining (including the
   GPU-domain rules the OpenMP pass relies on), branch folding, CFG
   simplification and dead-code elimination with a purity analysis.

   Runs to a fixpoint per invocation. All folds use the same evaluation
   semantics as the virtual GPU (OCaml native ints / floats). *)

open Ozo_ir.Types
module Cfg = Ozo_ir.Cfg
module SMap = Cfg.SMap
module SSet = Cfg.SSet

let pass = "local-opt"

(* ---------- purity ---------------------------------------------------- *)

(* A function is pure if it cannot write memory, synchronize, trap or
   otherwise have observable effects; loads are allowed (removing an
   unused pure call drops only reads). *)
let pure_functions (m : modul) : SSet.t =
  let assume_pure = ref SSet.empty in
  List.iter (fun f -> assume_pure := SSet.add f.f_name !assume_pure) m.m_funcs;
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun f ->
        if SSet.mem f.f_name !assume_pure then begin
          let impure =
            List.exists
              (fun b ->
                List.exists
                  (function
                    | Store _ | Barrier _ | Atomic _ | Trap _ | Malloc _ | Free _
                    | Debug_print _ | Assume _ -> true
                    | Call (_, callee, _) -> not (SSet.mem callee !assume_pure)
                    | Call_indirect _ -> true
                    | Binop _ | Unop _ | Icmp _ | Fcmp _ | Select _ | Load _
                    | Ptradd _ | Alloca _ | Intrinsic _ -> false)
                  b.b_insts)
              f.f_blocks
          in
          if impure then begin
            assume_pure := SSet.remove f.f_name !assume_pure;
            changed := true
          end
        end)
      m.m_funcs
  done;
  !assume_pure

(* ---------- constant folding ------------------------------------------ *)

let as_int = function Imm_int (v, _) -> Some (Int64.to_int v) | _ -> None
let as_float = function Imm_float x -> Some x | _ -> None

let fold_ibinop op a b =
  match op with
  | Add -> Some (a + b)
  | Sub -> Some (a - b)
  | Mul -> Some (a * b)
  | Sdiv -> if b = 0 then None else Some (a / b)
  | Srem -> if b = 0 then None else Some (a mod b)
  | Udiv -> if b = 0 then None else Some (abs a / abs b)
  | Urem -> if b = 0 then None else Some (abs a mod abs b)
  | And -> Some (a land b)
  | Or -> Some (a lor b)
  | Xor -> Some (a lxor b)
  | Shl -> Some (a lsl (b land 62))
  | Ashr -> Some (a asr (b land 62))
  | Lshr -> Some ((a lsr (b land 62)) land max_int)
  | Smin -> Some (min a b)
  | Smax -> Some (max a b)
  | Fadd | Fsub | Fmul | Fdiv | Fmin | Fmax -> None

let fold_fbinop op a b =
  match op with
  | Fadd -> Some (a +. b)
  | Fsub -> Some (a -. b)
  | Fmul -> Some (a *. b)
  | Fdiv -> Some (a /. b)
  | Fmin -> Some (min a b)
  | Fmax -> Some (max a b)
  | _ -> None

let icmp_ult a b =
  (a >= 0 && b >= 0 && a < b) || (a >= 0 && b < 0) || (a < 0 && b < 0 && a < b)

let fold_icmp op a b =
  let r =
    match op with
    | Eq -> a = b
    | Ne -> a <> b
    | Slt -> a < b
    | Sle -> a <= b
    | Sgt -> a > b
    | Sge -> a >= b
    | Ult -> icmp_ult a b
    | Ule -> a = b || icmp_ult a b
    | Ugt -> icmp_ult b a
    | Uge -> a = b || icmp_ult b a
  in
  if r then 1 else 0

let fold_fcmp op a b =
  let r =
    match op with
    | Feq -> a = b
    | Fne -> a <> b
    | Flt -> a < b
    | Fle -> a <= b
    | Fgt -> a > b
    | Fge -> a >= b
  in
  if r then 1 else 0

(* ---------- per-function rewrite --------------------------------------- *)

type defs = (reg, inst) Hashtbl.t

let build_defs (f : func) : defs =
  let t = Hashtbl.create 64 in
  List.iter
    (fun b ->
      List.iter
        (fun i -> match inst_def i with Some r -> Hashtbl.replace t r i | None -> ())
        b.b_insts)
    f.f_blocks;
  t

(* Try to fold one instruction (with operands already substituted) to an
   operand. [defs] lets domain rules look through register definitions. *)
let fold_inst (defs : defs) (inst : inst) : operand option =
  let def_of o =
    match o with Reg r -> Hashtbl.find_opt defs r | _ -> None
  in
  match inst with
  | Binop (_, op, a, b) -> (
    match (as_int a, as_int b, as_float a, as_float b) with
    | Some x, Some y, _, _ ->
      Option.map (fun v -> Imm_int (Int64.of_int v, I64)) (fold_ibinop op x y)
    | _, _, Some x, Some y ->
      Option.map (fun v -> Imm_float v) (fold_fbinop op x y)
    | _ -> (
      (* identities *)
      match (op, a, b, as_int a, as_int b) with
      | Add, _, _, Some 0, _ -> Some b
      | Add, _, _, _, Some 0 -> Some a
      | Sub, _, _, _, Some 0 -> Some a
      | Mul, _, _, Some 1, _ -> Some b
      | Mul, _, _, _, Some 1 -> Some a
      | Mul, _, _, Some 0, _ | Mul, _, _, _, Some 0 -> Some (Imm_int (0L, I64))
      | And, _, _, Some 0, _ | And, _, _, _, Some 0 -> Some (Imm_int (0L, I64))
      | Or, _, _, Some 0, _ -> Some b
      | Or, _, _, _, Some 0 -> Some a
      | Xor, _, _, _, Some 0 -> Some a
      | (Fadd | Fsub), _, _, _, _ when as_float b = Some 0.0 -> Some a
      | Fmul, _, _, _, _ when as_float b = Some 1.0 -> Some a
      | Fmul, _, _, _, _ when as_float a = Some 1.0 -> Some b
      | _ -> None))
  | Unop (_, op, a) -> (
    match (op, as_int a, as_float a) with
    | Not, Some x, _ -> Some (Imm_int (Int64.of_int (lnot x), I64))
    | Fneg, _, Some x -> Some (Imm_float (-.x))
    | Fabs, _, Some x -> Some (Imm_float (Float.abs x))
    | Fsqrt, _, Some x -> Some (Imm_float (sqrt x))
    | Fexp, _, Some x -> Some (Imm_float (exp x))
    | Flog, _, Some x -> Some (Imm_float (log x))
    | Fsin, _, Some x -> Some (Imm_float (sin x))
    | Fcos, _, Some x -> Some (Imm_float (cos x))
    | Sitofp, Some x, _ -> Some (Imm_float (float_of_int x))
    | Fptosi, _, Some x -> Some (Imm_int (Int64.of_int (int_of_float x), I64))
    | Zext32to64, Some x, _ -> Some (Imm_int (Int64.of_int (x land 0xFFFFFFFF), I64))
    | Trunc64to32, Some x, _ -> Some (Imm_int (Int64.of_int (x land 0xFFFFFFFF), I64))
    | _ -> None)
  | Icmp (_, op, a, b) -> (
    match (as_int a, as_int b) with
    | Some x, Some y -> Some (Imm_int (Int64.of_int (fold_icmp op x y), I1))
    | _ ->
      if a = b && (match a with Reg _ -> true | _ -> false) then
        (* x op x *)
        let r = match op with Eq | Sle | Sge | Ule | Uge -> 1 | _ -> 0 in
        Some (Imm_int (Int64.of_int r, I1))
      else begin
        (* GPU-domain rules: 0 <= thread_id < block_dim, 0 <= block_id <
           grid_dim. This is OpenMP/GPU knowledge the optimization pass
           carries (Section IV). *)
        match (op, def_of a, def_of b, as_int a, as_int b) with
        | Slt, Some (Intrinsic (_, Thread_id)), Some (Intrinsic (_, Block_dim)), _, _
        | Slt, Some (Intrinsic (_, Lane_id)), Some (Intrinsic (_, Warp_size)), _, _
        | Slt, Some (Intrinsic (_, Block_id)), Some (Intrinsic (_, Grid_dim)), _, _ ->
          Some (Imm_int (1L, I1))
        | Sge, Some (Intrinsic (_, Thread_id)), _, _, Some 0
        | Sge, Some (Intrinsic (_, Block_id)), _, _, Some 0
        | Sge, Some (Intrinsic (_, Block_dim)), _, _, Some 0
        | Sge, Some (Intrinsic (_, Grid_dim)), _, _, Some 0 ->
          Some (Imm_int (1L, I1))
        | Slt, Some (Intrinsic (_, Thread_id)), _, _, Some 0
        | Slt, Some (Intrinsic (_, Block_id)), _, _, Some 0 ->
          Some (Imm_int (0L, I1))
        | _ -> None
      end)
  | Fcmp (_, op, a, b) -> (
    match (as_float a, as_float b) with
    | Some x, Some y -> Some (Imm_int (Int64.of_int (fold_fcmp op x y), I1))
    | _ -> None)
  | Select (_, _, c, x, y) -> (
    match as_int c with
    | Some 0 -> Some y
    | Some _ -> Some x
    | None -> if x = y then Some x else None)
  | Ptradd (_, base, off) -> (
    match as_int off with Some 0 -> Some base | _ -> None)
  | _ -> None

(* substitution of operands via union-find-ish map *)
let rec chase subst o =
  match o with
  | Reg r -> (
    match Hashtbl.find_opt subst r with
    | Some o' when o' <> o -> chase subst o'
    | _ -> o)
  | _ -> o

let simplify_function (am : Analysis.t) (m : modul) (pure : SSet.t) (f : func) :
    func * bool =
  ignore m;
  let orig = f in
  let changed = ref false in
  let subst : (reg, operand) Hashtbl.t = Hashtbl.create 32 in
  let f = ref f in
  let continue_ = ref true in
  while !continue_ do
    continue_ := false;
    let defs = build_defs !f in
    (* 1. fold instructions *)
    let fold_block b =
      let insts =
        List.filter_map
          (fun i ->
            let i = map_inst_operands (chase subst) i in
            match inst_def i with
            | Some r when not (Hashtbl.mem subst r) -> (
              match fold_inst defs i with
              | Some o ->
                Hashtbl.replace subst r (chase subst o);
                changed := true;
                continue_ := true;
                None
              | None -> (
                (* devirtualize indirect calls with known targets *)
                match i with
                | Call_indirect (d, _, Func_addr callee, args) ->
                  changed := true;
                  continue_ := true;
                  Some (Call (d, callee, args))
                | _ -> Some i))
            | _ -> (
              match i with
              | Call_indirect (d, _, Func_addr callee, args) ->
                changed := true;
                continue_ := true;
                Some (Call (d, callee, args))
              | _ -> Some i))
          b.b_insts
      in
      let phis =
        List.filter_map
          (fun p ->
            let p = map_phi_operands (chase subst) p in
            (* phi of identical values (ignoring self-references) *)
            let vals =
              List.filter_map
                (fun (_, o) -> if o = Reg p.phi_reg then None else Some o)
                p.phi_incoming
            in
            match List.sort_uniq compare vals with
            | [ v ] when (match v with Reg _ | Imm_int _ | Imm_float _ | Global_addr _ | Func_addr _ -> true | Undef _ -> false) ->
              Hashtbl.replace subst p.phi_reg (chase subst v);
              changed := true;
              continue_ := true;
              None
            | _ -> Some p)
          b.b_phis
      in
      let term = map_term_operands (chase subst) b.b_term in
      let term =
        match term with
        | Cond_br (c, t, fl) -> (
          match as_int c with
          | Some 0 ->
            changed := true;
            Br fl
          | Some _ ->
            changed := true;
            Br t
          | None -> if t = fl then Br t else term)
        | Switch (o, cases, d) -> (
          match as_int o with
          | Some v -> (
            changed := true;
            match List.find_opt (fun (cv, _) -> Int64.to_int cv = v) cases with
            | Some (_, l) -> Br l
            | None -> Br d)
          | None -> term)
        | _ -> term
      in
      { b with b_insts = insts; b_phis = phis; b_term = term }
    in
    f := { !f with f_blocks = List.map fold_block !f.f_blocks };
    (* 2. prune unreachable blocks (reusing the manager's CFG) *)
    let f2, ch = Cfg.prune_unreachable ~cfg:(Analysis.cfg am !f) !f in
    if ch then begin
      changed := true;
      continue_ := true
    end;
    f := f2;
    (* 3. merge straight-line blocks: b absorbs s when b's only successor
       is s and s's only predecessor is b. Contents are taken from a live
       table so a block that already absorbed others is merged with its
       current (not stale) body; predecessor *counts* are invariant under
       merging, so the initial CFG's counts stay valid. *)
    let cfg = Analysis.cfg am !f in
    let current : (label, block) Hashtbl.t = Hashtbl.create 16 in
    List.iter (fun b -> Hashtbl.replace current b.b_label b) !f.f_blocks;
    let merged = ref SSet.empty in
    (* rename map: absorbed label -> absorbing block's label, for phi
       incoming edges in the successors of the absorbed block *)
    let renames : (label, label) Hashtbl.t = Hashtbl.create 8 in
    let rec final_label l =
      match Hashtbl.find_opt renames l with Some l' -> final_label l' | None -> l
    in
    let rec merge_from lbl =
      match Hashtbl.find_opt current lbl with
      | None -> ()
      | Some b -> (
        match b.b_term with
        | Br s
          when s <> b.b_label && final_label s <> b.b_label
               && (match Cfg.preds cfg s with [ _ ] -> true | _ -> false)
               && (not (SSet.mem s !merged))
               && Hashtbl.mem current s ->
          let sb = Hashtbl.find current s in
          if sb.b_phis = [] then begin
            merged := SSet.add s !merged;
            Hashtbl.replace renames s b.b_label;
            Hashtbl.remove current s;
            Hashtbl.replace current b.b_label
              { b with b_insts = b.b_insts @ sb.b_insts; b_term = sb.b_term };
            changed := true;
            continue_ := true;
            merge_from b.b_label
          end
        | _ -> ())
    in
    List.iter (fun b -> merge_from b.b_label) !f.f_blocks;
    let blocks =
      List.filter_map
        (fun b ->
          if SSet.mem b.b_label !merged then None
          else Hashtbl.find_opt current b.b_label)
        !f.f_blocks
    in
    let blocks =
      if Hashtbl.length renames = 0 then blocks
      else
        List.map
          (fun b ->
            { b with
              b_phis =
                List.map
                  (fun p ->
                    { p with
                      phi_incoming =
                        List.map (fun (l, o) -> (final_label l, o)) p.phi_incoming })
                  b.b_phis })
          blocks
    in
    f := { !f with f_blocks = blocks };
    (* 4. apply pending substitutions everywhere before DCE: a value that
       is only reachable through the substitution map must not look dead *)
    if Hashtbl.length subst > 0 then begin
      let ch = chase subst in
      f :=
        { !f with
          f_blocks =
            List.map
              (fun b ->
                { b with
                  b_phis = List.map (map_phi_operands ch) b.b_phis;
                  b_insts = List.map (map_inst_operands ch) b.b_insts;
                  b_term = map_term_operands ch b.b_term })
              !f.f_blocks }
    end;
    (* 5. DCE *)
    let used = Hashtbl.create 64 in
    let mark o = List.iter (fun r -> Hashtbl.replace used r ()) (operand_regs o) in
    List.iter
      (fun b ->
        List.iter (fun p -> List.iter (fun (_, o) -> mark o) p.phi_incoming) b.b_phis;
        List.iter (fun i -> List.iter mark (inst_uses i)) b.b_insts;
        List.iter mark (term_uses b.b_term))
      !f.f_blocks;
    let is_dead i =
      match inst_def i with
      | Some r when not (Hashtbl.mem used r) -> (
        match i with
        | Call (_, callee, _) -> SSet.mem callee pure
        | _ -> not (inst_has_side_effects i))
      | Some _ -> false
      | None -> (
        (* void pure calls are dead *)
        match i with Call (None, callee, _) -> SSet.mem callee pure | _ -> false)
    in
    let blocks =
      List.map
        (fun b ->
          let insts =
            List.filter
              (fun i ->
                if is_dead i then begin
                  changed := true;
                  continue_ := true;
                  false
                end
                else true)
              b.b_insts
          in
          let phis =
            List.filter
              (fun p ->
                if Hashtbl.mem used p.phi_reg then true
                else begin
                  changed := true;
                  continue_ := true;
                  false
                end)
              b.b_phis
          in
          { b with b_insts = insts; b_phis = phis })
        !f.f_blocks
    in
    f := { !f with f_blocks = blocks }
  done;
  (* the rewrite loop rebuilds records even on no-op iterations; return the
     original so the analysis manager sees physical identity *)
  if !changed then (!f, true) else (orig, false)

let run ?am (m : modul) : modul * bool =
  let am = match am with Some a -> a | None -> Analysis.create () in
  let pure = pure_functions m in
  Analysis.map_functions am ~pass ~env:pure
    (fun f ->
      try simplify_function am m pure f with Failure msg ->
        Fmt.epr "INPUT WAS:@.%a@." Ozo_ir.Printer.pp_func f;
        failwith msg)
    m
