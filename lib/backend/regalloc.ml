(* Linear-scan register allocation (Poletto & Sarkar) over a finite
   per-thread register file.

   The allocator runs on the optimized SSA IR, one function at a time,
   driven by the liveness analysis the pipeline already computed (and
   cached in the analysis manager — callers pass the cached result in).
   It produces a location for every virtual register: a physical
   register index below the machine's [mc_max_regs_per_thread] budget,
   or a spill slot in the per-thread local-memory frame.

   Live intervals are built over a linearization of the function (blocks
   in layout order, one program point per instruction plus explicit
   block-entry and block-exit points). The entry point of a block
   extends not just the live-in set but also the phi destinations and
   *all* incoming phi sources: during the edge's parallel copy, sources
   and destinations overlap — the same boundary overlap
   [Liveness.max_pressure_with] counts. Intervals are conservative
   [min, max] ranges (holes are not exploited), which is exactly the
   classic linear-scan trade-off.

   Spill heuristic: at each conflict the interval with the furthest end
   point is spilled (it blocks the register file for the longest), which
   is the original linear-scan choice. Every spilled value gets its own
   8-byte slot in the frame; static spill cost (one store after the def,
   one reload per use) is reported so the harness can surface it the way
   ptxas reports spill stores/loads. *)

open Ozo_ir.Types
module Liveness = Ozo_ir.Liveness
module RSet = Liveness.RSet
module SMap = Ozo_ir.Cfg.SMap

type loc = Phys of int | Slot of int

type interval = {
  iv_reg : reg;
  iv_start : int;
  iv_end : int;
  mutable iv_loc : loc;
}

type result = {
  ra_func : string;
  ra_budget : int;                    (* registers available to the scan *)
  ra_loc : (reg, loc) Hashtbl.t;      (* every live vreg's final location *)
  ra_intervals : interval list;       (* sorted by start point *)
  ra_regs_used : int;                 (* distinct physical registers assigned *)
  ra_pressure : int;                  (* max simultaneously live intervals *)
  ra_spilled : reg list;              (* vregs demoted to the frame *)
  ra_frame_bytes : int;               (* local-memory spill frame *)
  ra_spill_stores : int;              (* static: one per spilled def *)
  ra_spill_loads : int;               (* static: one per spilled use site *)
}

let slot_bytes = 8

(* ---------- interval construction ------------------------------------- *)

let operand_regs_set ops =
  List.fold_left
    (fun acc o ->
      List.fold_left (fun acc r -> RSet.add r acc) acc (operand_regs o))
    RSet.empty ops

let build_intervals (lv : Liveness.t) (f : func) : interval list =
  (* [lo.(r)] and [hi.(r)]: first and last program point touching vreg
     [r] (-1: never touched). Points are visited in increasing order, so
     the first touch fixes [lo] and every touch moves [hi]. [f_next_reg]
     bounds the numbering; the arrays grow should a register exceed it. *)
  let lo = ref (Array.make (max 1 f.f_next_reg) (-1)) in
  let hi = ref (Array.make (max 1 f.f_next_reg) (-1)) in
  let touch p r =
    if r >= Array.length !lo then begin
      let grow a =
        let a' = Array.make (2 * r + 1) (-1) in
        Array.blit a 0 a' 0 (Array.length a);
        a'
      in
      lo := grow !lo;
      hi := grow !hi
    end;
    if !lo.(r) < 0 then !lo.(r) <- p;
    !hi.(r) <- p
  in
  let touch_op p o = List.iter (touch p) (operand_regs o) in
  let touch_set p s = RSet.iter (touch p) s in
  let point = ref 0 in
  let next () =
    let p = !point in
    incr point;
    p
  in
  List.iter
    (fun b ->
      let live_in =
        Option.value ~default:RSet.empty (SMap.find_opt b.b_label lv.Liveness.live_in)
      in
      let live_out =
        Option.value ~default:RSet.empty (SMap.find_opt b.b_label lv.Liveness.live_out)
      in
      (* block entry: live-through values, phi destinations and every
         incoming phi source overlap here (the parallel-copy moment) *)
      let entry = next () in
      touch_set entry live_in;
      List.iter
        (fun p ->
          touch entry p.phi_reg;
          List.iter (fun (_, o) -> touch_op entry o) p.phi_incoming)
        b.b_phis;
      (* per-instruction points: the def is born at its point; uses must
         survive up to it. Live-through values are pinned by the entry
         and exit points, so per-point live sets are not needed here. *)
      List.iter
        (fun i ->
          let p = next () in
          (match inst_def i with Some r -> touch p r | None -> ());
          List.iter (touch_op p) (inst_uses i))
        b.b_insts;
      (* block exit: terminator operands and everything live out *)
      let exit_ = next () in
      List.iter (touch_op exit_) (term_uses b.b_term);
      touch_set exit_ live_out)
    f.f_blocks;
  (* collected in increasing register order, so a stable sort on the
     start point orders by (start, reg) *)
  let lo = !lo and hi = !hi in
  let ivs = ref [] in
  for r = Array.length lo - 1 downto 0 do
    if lo.(r) >= 0 then
      ivs := { iv_reg = r; iv_start = lo.(r); iv_end = hi.(r); iv_loc = Phys (-1) } :: !ivs
  done;
  List.stable_sort (fun a b -> Int.compare a.iv_start b.iv_start) !ivs

(* ---------- the scan --------------------------------------------------- *)

(* Count each spilled register's static spill code: one store per def
   (params and phis included) and one reload per instruction, terminator
   or phi-edge that reads it. *)
let static_spill_counts (f : func) (spilled : RSet.t) =
  let stores = ref 0 and loads = ref 0 in
  let count_uses ops =
    let used = RSet.inter (operand_regs_set ops) spilled in
    loads := !loads + RSet.cardinal used
  in
  List.iter (fun (r, _) -> if RSet.mem r spilled then incr stores) f.f_params;
  List.iter
    (fun b ->
      List.iter
        (fun p ->
          if RSet.mem p.phi_reg spilled then incr stores;
          List.iter (fun (_, o) -> count_uses [ o ]) p.phi_incoming)
        b.b_phis;
      List.iter
        (fun i ->
          (match inst_def i with
          | Some r when RSet.mem r spilled -> incr stores
          | _ -> ());
          count_uses (inst_uses i))
        b.b_insts;
      count_uses (term_uses b.b_term))
    f.f_blocks;
  (!stores, !loads)

let run ?(budget = 255) (lv : Liveness.t) (f : func) : result =
  let budget = max 1 budget in
  let intervals = build_intervals lv f in
  (* busy map over the register file; [lowest] is the lowest free index
     ([budget] when none is free), so registers are handed out lowest
     first and indices stay dense *)
  let busy = Array.make budget false in
  let lowest = ref 0 in
  let take () =
    let r = !lowest in
    busy.(r) <- true;
    let i = ref (r + 1) in
    while !i < budget && busy.(!i) do incr i done;
    lowest := !i;
    r
  in
  let give r =
    busy.(r) <- false;
    if r < !lowest then lowest := r
  in
  (* active intervals sorted by increasing end point in [act.(0..n-1)];
     each holds one busy register, so [n <= budget]. A new interval goes
     before the first one ending no earlier than it. *)
  let act = Array.make budget { iv_reg = -1; iv_start = 0; iv_end = 0; iv_loc = Slot 0 } in
  let n = ref 0 in
  let insert_active iv =
    let pos = ref 0 in
    while !pos < !n && act.(!pos).iv_end < iv.iv_end do incr pos done;
    Array.blit act !pos act (!pos + 1) (!n - !pos);
    act.(!pos) <- iv;
    incr n
  in
  let regs_used = ref 0 in
  let pressure = ref 0 in
  let slots = ref 0 in
  let spilled = ref RSet.empty in
  let assign_phys iv =
    let r = take () in
    iv.iv_loc <- Phys r;
    regs_used := max !regs_used (r + 1);
    insert_active iv
  in
  let assign_slot iv =
    let s = !slots in
    incr slots;
    iv.iv_loc <- Slot s;
    spilled := RSet.add iv.iv_reg !spilled
  in
  List.iter
    (fun iv ->
      (* expire intervals that ended before this one starts *)
      let k = ref 0 in
      while !k < !n && act.(!k).iv_end < iv.iv_start do
        (match act.(!k).iv_loc with Phys r -> give r | Slot _ -> ());
        incr k
      done;
      if !k > 0 then begin
        Array.blit act !k act 0 (!n - !k);
        n := !n - !k
      end;
      pressure := max !pressure (!n + 1);
      if !n < budget then assign_phys iv
      else begin
        (* furthest-end heuristic: spill whichever of {the active set,
           the new interval} is live the longest *)
        let last = act.(!n - 1) in
        if last.iv_end > iv.iv_end then begin
          let phys = match last.iv_loc with Phys r -> r | Slot _ -> assert false in
          assign_slot last;
          decr n;
          give phys;
          assign_phys iv
        end
        else assign_slot iv
      end)
    intervals;
  let loc_of : (reg, loc) Hashtbl.t = Hashtbl.create (max 16 (List.length intervals)) in
  List.iter (fun iv -> Hashtbl.add loc_of iv.iv_reg iv.iv_loc) intervals;
  let stores, loads =
    if RSet.is_empty !spilled then (0, 0) else static_spill_counts f !spilled
  in
  { ra_func = f.f_name;
    ra_budget = budget;
    ra_loc = loc_of;
    ra_intervals = intervals;
    ra_regs_used = !regs_used;
    ra_pressure = !pressure;
    ra_spilled = RSet.elements !spilled;
    ra_frame_bytes = !slots * slot_bytes;
    ra_spill_stores = stores;
    ra_spill_loads = loads }

let loc r t =
  match Hashtbl.find_opt t.ra_loc r with
  | Some l -> l
  | None -> Phys 0 (* dead register: never live, any location works *)
