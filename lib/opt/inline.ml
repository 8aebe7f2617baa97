(* Function inlining. The co-designed pipeline leans on aggressive inlining
   of the (internalized) runtime into kernels: once runtime code is inside
   the kernel, constant arguments (the SPMD mode, outlined-region function
   pointers, trip counts) become visible and the memory analyses can run
   intra-procedurally.

   Allocas of the inlinee are hoisted to the caller's entry block so that
   inlining a callee invoked inside a loop does not grow the thread stack
   per iteration (LLVM uses stacksave/stackrestore; hoisting is equivalent
   here because sizes are static). *)

open Ozo_ir.Types
module SSet = Ozo_ir.Cfg.SSet
module Callgraph = Ozo_ir.Callgraph

let pass = "inline"

let default_block_budget = 120

(* Clone [callee]'s body for inlining at a call site.
   Returns (blocks, entry label, rets, hoisted allocas, new next_reg). *)
let clone_body ~(caller_next : reg) ~(suffix : string) (callee : func)
    (args : operand list) =
  let remap_reg r = r + caller_next in
  let param_map = Hashtbl.create 8 in
  List.iter2 (fun (p, _) a -> Hashtbl.replace param_map p a) callee.f_params args;
  let remap_op = function
    | Reg r -> (
      match Hashtbl.find_opt param_map r with
      | Some a -> a
      | None -> Reg (remap_reg r))
    | o -> o
  in
  let remap_label l = l ^ suffix in
  let rets = ref [] in
  let allocas = ref [] in
  let blocks =
    List.map
      (fun b ->
        let phis =
          List.map
            (fun p ->
              { phi_reg = remap_reg p.phi_reg; phi_typ = p.phi_typ;
                phi_incoming =
                  List.map (fun (l, o) -> (remap_label l, remap_op o)) p.phi_incoming })
            b.b_phis
        in
        let insts =
          List.filter_map
            (fun i ->
              let i = map_inst_operands remap_op i in
              let i =
                match inst_def i with
                | Some r -> (
                  (* rewrite destination *)
                  match i with
                  | Binop (_, op, a, c) -> Binop (remap_reg r, op, a, c)
                  | Unop (_, op, a) -> Unop (remap_reg r, op, a)
                  | Icmp (_, op, a, c) -> Icmp (remap_reg r, op, a, c)
                  | Fcmp (_, op, a, c) -> Fcmp (remap_reg r, op, a, c)
                  | Select (_, t, c, x, y) -> Select (remap_reg r, t, c, x, y)
                  | Load (_, t, a) -> Load (remap_reg r, t, a)
                  | Ptradd (_, a, o) -> Ptradd (remap_reg r, a, o)
                  | Alloca (_, sz) -> Alloca (remap_reg r, sz)
                  | Call (Some _, n, a) -> Call (Some (remap_reg r), n, a)
                  | Call_indirect (Some _, t, c, a) ->
                    Call_indirect (Some (remap_reg r), t, c, a)
                  | Intrinsic (_, k) -> Intrinsic (remap_reg r, k)
                  | Malloc (_, s) -> Malloc (remap_reg r, s)
                  | Atomic (Some _, op, t, a, os) -> Atomic (Some (remap_reg r), op, t, a, os)
                  | other -> other)
                | None -> i
              in
              match i with
              | Alloca _ ->
                allocas := i :: !allocas;
                None
              | _ -> Some i)
            b.b_insts
        in
        let term =
          match b.b_term with
          | Ret o ->
            rets := (remap_label b.b_label, Option.map remap_op o) :: !rets;
            Ret None (* placeholder; rewritten to Br cont below *)
          | Br l -> Br (remap_label l)
          | Cond_br (c, t, fl) -> Cond_br (remap_op c, remap_label t, remap_label fl)
          | Switch (o, cases, d) ->
            Switch
              (remap_op o, List.map (fun (v, l) -> (v, remap_label l)) cases,
               remap_label d)
          | Unreachable -> Unreachable
        in
        { b_label = remap_label b.b_label; b_phis = phis; b_insts = insts; b_term = term })
      callee.f_blocks
  in
  let entry = remap_label (entry_block callee).b_label in
  (blocks, entry, List.rev !rets, List.rev !allocas, caller_next + callee.f_next_reg)

(* Inline one call site in [caller]; returns the updated function. *)
let inline_call (caller : func) (callee : func) ~(block : label) ~(idx : int)
    ~(dst : reg option) ~(args : operand list) ~(site : int) : func =
  let suffix = Printf.sprintf ".i%d" site in
  let blocks, centry, rets, allocas, next_reg =
    clone_body ~caller_next:caller.f_next_reg ~suffix callee args
  in
  let cont_label = Printf.sprintf "%s.cont%d" block site in
  (* rewrite ret blocks to branch to the continuation *)
  let blocks =
    List.map
      (fun b ->
        if List.exists (fun (l, _) -> l = b.b_label) rets then
          { b with b_term = Br cont_label }
        else b)
      blocks
  in
  let ret_phi =
    match dst with
    | None -> []
    | Some r ->
      let typ = match callee.f_ret with Some t -> t | None -> I64 in
      [ { phi_reg = r; phi_typ = typ;
          phi_incoming =
            List.map
              (fun (l, o) -> (l, Option.value ~default:(Undef typ) o))
              rets } ]
  in
  let new_blocks =
    List.concat_map
      (fun b ->
        if b.b_label <> block then [ b ]
        else begin
          let before = List.filteri (fun i _ -> i < idx) b.b_insts in
          let after = List.filteri (fun i _ -> i > idx) b.b_insts in
          let head = { b with b_insts = before; b_term = Br centry } in
          let cont =
            { b_label = cont_label; b_phis = ret_phi; b_insts = after;
              b_term = b.b_term }
          in
          (* phis in successors referring to [block] must now refer to the
             continuation *)
          [ head; cont ] @ blocks
        end)
      caller.f_blocks
  in
  (* fix successor phis: incoming edges from [block] now come from cont *)
  let new_blocks =
    let succs_of_cont = term_succs (find_block_exn { caller with f_blocks = new_blocks } cont_label).b_term in
    List.map
      (fun b ->
        if b.b_label <> cont_label && List.mem b.b_label succs_of_cont then
          { b with
            b_phis =
              List.map
                (fun p ->
                  { p with
                    phi_incoming =
                      List.map
                        (fun (l, o) -> if l = block then (cont_label, o) else (l, o))
                        p.phi_incoming })
                b.b_phis }
        else b)
      new_blocks
  in
  (* hoist inlinee allocas into the entry block *)
  let new_blocks =
    match new_blocks with
    | e :: rest when allocas <> [] -> { e with b_insts = allocas @ e.b_insts } :: rest
    | bs -> bs
  in
  { caller with f_blocks = new_blocks; f_next_reg = next_reg }

(* Inlining policy: internal, non-recursive, not no_inline, and either
   small or single-use. Runtime entry points that were internalized and
   outlined region bodies all satisfy this. *)
let should_inline (cg : Callgraph.t) (_m : modul) (callee : func) =
  callee.f_linkage = Internal
  && (not (List.mem Attr_no_inline callee.f_attrs))
  && (not callee.f_is_kernel)
  && (not (Callgraph.is_recursive cg callee.f_name))
  &&
  let size = List.length callee.f_blocks in
  let callers = Callgraph.callers cg callee.f_name in
  size <= default_block_budget || SSet.cardinal callers <= 1

(* One inlining sweep over the module: each function inlines its eligible
   call sites (one nesting level per sweep; the pipeline iterates). *)
let run ?am ?(sink = Remarks.drop) (m : modul) : modul * bool =
  let am = match am with Some a -> a | None -> Analysis.create () in
  let cg = Analysis.callgraph am m in
  let changed = ref false in
  let process f =
    if List.mem Attr_no_inline f.f_attrs then f
    else begin
      let continue_ = ref true in
      let f = ref f in
      while !continue_ do
        continue_ := false;
        (* find the first eligible call site *)
        let found =
          List.find_map
            (fun b ->
              List.mapi (fun i inst -> (i, inst)) b.b_insts
              |> List.find_map (fun (i, inst) ->
                     match inst with
                     | Call (dst, callee_name, args) -> (
                       match find_func m callee_name with
                       | Some callee
                         when callee.f_name <> !f.f_name && should_inline cg m callee ->
                         Some (b.b_label, i, dst, callee, args)
                       | _ -> None)
                     | _ -> None))
            !f.f_blocks
        in
        match found with
        | Some (block, idx, dst, callee, args) ->
          (* site numbers come from the compile's name supply: unique
             across pipeline rounds, so a round-2 clone cannot collide
             with surviving round-1 labels in the same function *)
          let site = Analysis.fresh_site am m in
          f := inline_call !f callee ~block ~idx ~dst ~args ~site;
          Remarks.applied sink ~pass ~func:!f.f_name "inlined %s" callee.f_name;
          changed := true;
          continue_ := true
        | None -> ()
      done;
      !f
    end
  in
  let funcs = List.map process m.m_funcs in
  if !changed then ({ m with m_funcs = funcs }, true) else (m, false)
