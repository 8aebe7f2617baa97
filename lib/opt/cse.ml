(* Dominator-tree scoped common-subexpression elimination for pure
   instructions. After aggressive inlining, kernels accumulate duplicate
   intrinsic reads (thread id, block dim) and duplicated addressing
   arithmetic from every inlined runtime call — folding them is part of
   what makes the optimized OpenMP kernel instruction-identical to the
   CUDA one. Loads are not touched (they are not pure across stores);
   memory reasoning lives in Memfold. *)

open Ozo_ir.Types
module Cfg = Ozo_ir.Cfg
module Dominance = Ozo_ir.Dominance

let pass = "cse"

(* hashable value key of a pure instruction, ignoring the destination *)
type key =
  | KBin of binop * operand * operand
  | KUn of unop * operand
  | KIcmp of icmp * operand * operand
  | KFcmp of fcmp * operand * operand
  | KSel of typ * operand * operand * operand
  | KPtr of operand * operand
  | KIntr of intrinsic

let key_of = function
  | Binop (_, op, a, b) ->
    (* normalize commutative operations *)
    let a, b =
      match op with
      | Add | Mul | And | Or | Xor | Smin | Smax | Fadd | Fmul | Fmin | Fmax ->
        if compare a b <= 0 then (a, b) else (b, a)
      | _ -> (a, b)
    in
    Some (KBin (op, a, b))
  | Unop (_, op, a) -> Some (KUn (op, a))
  | Icmp (_, op, a, b) -> Some (KIcmp (op, a, b))
  | Fcmp (_, op, a, b) -> Some (KFcmp (op, a, b))
  | Select (_, t, c, x, y) -> Some (KSel (t, c, x, y))
  | Ptradd (_, a, b) -> Some (KPtr (a, b))
  | Intrinsic (_, i) -> Some (KIntr i)
  | _ -> None

let run_function (am : Analysis.t) (f : func) : func * bool =
  let cfg = Analysis.cfg am f in
  let dom = Analysis.dominators am f in
  let changed = ref false in
  let subst : (reg, operand) Hashtbl.t = Hashtbl.create 32 in
  let chase o =
    match o with Reg r -> Option.value ~default:o (Hashtbl.find_opt subst r) | _ -> o
  in
  (* available expressions along the dominator tree: key -> reg, with an
     undo log per tree node *)
  let avail : (key, reg) Hashtbl.t = Hashtbl.create 64 in
  let new_blocks : (label, block) Hashtbl.t = Hashtbl.create 16 in
  let rec walk label =
    let b = Cfg.block cfg label in
    let added = ref [] in
    let insts =
      List.filter_map
        (fun i ->
          let i = map_inst_operands chase i in
          match (key_of i, inst_def i) with
          | Some k, Some r -> (
            match Hashtbl.find_opt avail k with
            | Some prev ->
              Hashtbl.replace subst r (Reg prev);
              changed := true;
              None
            | None ->
              Hashtbl.add avail k r;
              added := k :: !added;
              Some i)
          | _ -> Some i)
        b.b_insts
    in
    let b' =
      { b with
        b_insts = insts;
        b_phis = List.map (map_phi_operands chase) b.b_phis;
        b_term = map_term_operands chase b.b_term }
    in
    Hashtbl.replace new_blocks label b';
    List.iter walk
      (List.sort compare
         (Ozo_ir.Cfg.SMap.fold
            (fun l d acc -> if d = Some label then l :: acc else acc)
            dom.Dominance.idom []));
    List.iter (fun k -> Hashtbl.remove avail k) !added
  in
  walk cfg.Cfg.entry;
  if not !changed then (f, false)
  else begin
    (* rebuild in original order; untouched (unreachable) blocks survive
       as-is with substitutions applied *)
    let blocks =
      List.map
        (fun b ->
          match Hashtbl.find_opt new_blocks b.b_label with
          | Some b' -> b'
          | None ->
            { b with
              b_phis = List.map (map_phi_operands chase) b.b_phis;
              b_insts = List.map (map_inst_operands chase) b.b_insts;
              b_term = map_term_operands chase b.b_term })
        f.f_blocks
    in
    (* a second substitution sweep: replacements recorded after a use was
       emitted in a sibling subtree must still land everywhere *)
    let blocks =
      List.map
        (fun b ->
          { b with
            b_phis = List.map (map_phi_operands chase) b.b_phis;
            b_insts = List.map (map_inst_operands chase) b.b_insts;
            b_term = map_term_operands chase b.b_term })
        blocks
    in
    ({ f with f_blocks = blocks }, true)
  end

let run ?am (m : modul) : modul * bool =
  let am = match am with Some a -> a | None -> Analysis.create () in
  Analysis.map_functions am ~pass (run_function am) m
