(* Analysis manager: lazily computed, cached, invalidation-aware IR
   analyses threaded through every pass (the reproduction of LLVM's new
   pass manager analysis caching that the paper's openmp-opt module pass
   relies on). One manager lives for the duration of a pipeline run; the
   passes query it instead of constructing CFGs, dominator trees, liveness
   or the call graph ad hoc, and [Pipeline.apply_pass] invalidates after
   each pass according to the pass's preserved-analyses declaration.

   Caching model
   - Per-function results (CFG, dominators, post-dominators, block
     reachability, liveness, register pressure) are keyed by function
     name. An entry remembers the exact [func] value it was computed on.
   - Validation is two-tier. A physically identical [func] (the common
     case after a pass returned its input unchanged) is served directly.
     A physically different value triggers a cheap structural comparison
     of the CFG *shape* (block labels in order plus terminator
     successors): if the shape is unchanged, the shape-derived analyses
     (CFG, dominance, post-dominance, reachability) are still valid and
     only the CFG's block-content map is refreshed, while content-derived
     analyses (liveness, pressure) are dropped; if the shape changed, the
     whole entry is recomputed. This self-validation makes a wrong
     [preserves] declaration a performance bug, never a correctness bug —
     [check_coherent] (used by the differential test suite) asserts the
     stronger property that every cached result equals a fresh
     recomputation.
   - The call graph is module-wide and validated purely by the
     invalidation contract: any changing pass that does not declare
     [pr_calls] drops it.

   Known-clean memo
   - For each function-local pass ([local_opt], [cse]) the manager keeps,
     per function name, the record that pass last returned unchanged.
     Such a pass is a pure function of the function record and an
     environment ([local_opt]: the module's purity set; [cse]: nothing),
     so [map_functions] skips a record physically equal to its clean
     mark: a rerun would return it unchanged again. The marks of a pass
     are dropped whenever its environment differs from the one they were
     recorded under.

   Name supply
   - The inliner numbers its clone labels ([.i<N>], [.cont<N>]) from a
     counter owned by the manager, so one compile names its clones the
     same way whatever ran before it in the process or on other domains.
     The counter starts past the largest such suffix already present in
     the module, so re-optimizing optimized IR cannot collide.

   [create ~caching:false] yields a pass-through manager (every query
   recomputes, no clean marks) used for A/B compile-time measurements in
   perfbench and as the reference in the cached-vs-uncached IR pin. *)

open Ozo_ir.Types
module Cfg = Ozo_ir.Cfg
module Dominance = Ozo_ir.Dominance
module Liveness = Ozo_ir.Liveness
module Callgraph = Ozo_ir.Callgraph
module SMap = Cfg.SMap
module SSet = Cfg.SSet

(* What a pass declares it keeps intact *when it reports a change*.
   [pr_cfg] covers every shape-derived per-function analysis, [pr_live]
   the content-derived ones, [pr_calls] the module call graph. *)
type preserved = { pr_cfg : bool; pr_live : bool; pr_calls : bool }

let preserve_all = { pr_cfg = true; pr_live = true; pr_calls = true }
let preserve_none = { pr_cfg = false; pr_live = false; pr_calls = false }
let preserve_cfg_only = { pr_cfg = true; pr_live = false; pr_calls = false }

type stats = {
  mutable st_hits : int;
  mutable st_misses : int;
  mutable st_invalidations : int;
  mutable st_clean_skips : int; (* function-local pass runs the memo skipped *)
}

(* CFG shape: block labels in order with their terminator successors.
   Two functions with equal shapes produce structurally identical CFGs,
   dominator trees and reachability maps (the construction is a
   deterministic function of this list), so shape equality is exactly the
   validity condition for the shape-derived analyses. *)
type shape = (label * label list) list

let shape_of (f : func) : shape =
  List.map (fun b -> (b.b_label, term_succs b.b_term)) f.f_blocks

type entry = {
  mutable e_func : func;   (* the value the cached results were computed on *)
  mutable e_shape : shape;
  mutable e_cfg : Cfg.t option;
  mutable e_dom : Dominance.t option;
  mutable e_pdom : Dominance.t option;
  mutable e_reach : SSet.t SMap.t option; (* label -> labels reachable via succs *)
  mutable e_live : Liveness.t option;
  mutable e_pressure : int option;
}

(* clean marks of one function-local pass, valid under [cl_env] *)
type clean = { mutable cl_env : SSet.t; cl_funcs : (string, func) Hashtbl.t }

type t = {
  caching : bool;
  entries : (string, entry) Hashtbl.t;
  mutable cg : Callgraph.t option;
  clean : (string, clean) Hashtbl.t; (* pass name -> clean marks *)
  mutable site : int option; (* last inline site number; None until seeded *)
  stats : stats;
}

let create ?(caching = true) () =
  { caching;
    entries = Hashtbl.create 16;
    cg = None;
    clean = Hashtbl.create 4;
    site = None;
    stats = { st_hits = 0; st_misses = 0; st_invalidations = 0; st_clean_skips = 0 } }

let stats t = t.stats
let caching t = t.caching

let hit t = t.stats.st_hits <- t.stats.st_hits + 1
let miss t = t.stats.st_misses <- t.stats.st_misses + 1
let note_invalidation t =
  t.stats.st_invalidations <- t.stats.st_invalidations + 1

let hit_rate s =
  let total = s.st_hits + s.st_misses in
  if total = 0 then 0.0 else 100.0 *. float_of_int s.st_hits /. float_of_int total

let fresh_entry f =
  { e_func = f; e_shape = shape_of f; e_cfg = None; e_dom = None; e_pdom = None;
    e_reach = None; e_live = None; e_pressure = None }

(* Validate (or create) the entry for [f]. See the caching model above. *)
let entry_for t (f : func) : entry =
  match Hashtbl.find_opt t.entries f.f_name with
  | None ->
    let e = fresh_entry f in
    Hashtbl.add t.entries f.f_name e;
    e
  | Some e ->
    if e.e_func == f then e
    else begin
      let sh = shape_of f in
      if sh = e.e_shape then begin
        (* same shape, possibly different block contents: refresh the
           block map of the cached CFG, drop content-derived results *)
        (match e.e_cfg with
        | Some cfg ->
          let blocks =
            List.fold_left
              (fun acc b -> SMap.add b.b_label b acc)
              SMap.empty f.f_blocks
          in
          e.e_cfg <- Some { cfg with Cfg.blocks }
        | None -> ());
        e.e_live <- None;
        e.e_pressure <- None;
        e.e_func <- f;
        e
      end
      else begin
        note_invalidation t;
        let e' = fresh_entry f in
        Hashtbl.replace t.entries f.f_name e';
        e'
      end
    end

(* uncounted internal accessors, so compound queries (dominators needs the
   CFG) register exactly one hit or miss per public call *)
let cfg_of e =
  match e.e_cfg with
  | Some c -> c
  | None ->
    let c = Cfg.of_func e.e_func in
    e.e_cfg <- Some c;
    c

let reach_of_cfg (cfg : Cfg.t) : SSet.t SMap.t =
  List.fold_left
    (fun acc l ->
      let seen = ref SSet.empty in
      let rec dfs x =
        if not (SSet.mem x !seen) then begin
          seen := SSet.add x !seen;
          List.iter dfs (Cfg.succs cfg x)
        end
      in
      List.iter dfs (Cfg.succs cfg l);
      SMap.add l !seen acc)
    SMap.empty (Cfg.labels cfg)

(* ---------- queries ----------------------------------------------------- *)

let cfg t (f : func) : Cfg.t =
  if not t.caching then begin
    miss t;
    Cfg.of_func f
  end
  else
    let e = entry_for t f in
    (match e.e_cfg with Some _ -> hit t | None -> miss t);
    cfg_of e

let dominators t (f : func) : Dominance.t =
  if not t.caching then begin
    miss t;
    Dominance.dominators (Cfg.of_func f)
  end
  else
    let e = entry_for t f in
    match e.e_dom with
    | Some d ->
      hit t;
      d
    | None ->
      miss t;
      let d = Dominance.dominators (cfg_of e) in
      e.e_dom <- Some d;
      d

let post_dominators t (f : func) : Dominance.t =
  if not t.caching then begin
    miss t;
    Dominance.post_dominators (Cfg.of_func f)
  end
  else
    let e = entry_for t f in
    match e.e_pdom with
    | Some d ->
      hit t;
      d
    | None ->
      miss t;
      let d = Dominance.post_dominators (cfg_of e) in
      e.e_pdom <- Some d;
      d

(* Per-label forward reachability (which labels can execution reach from
   each block, excluding the block itself unless it sits in a cycle) —
   the pass-side filter for path-sensitive memory reasoning. *)
let reachability t (f : func) : SSet.t SMap.t =
  if not t.caching then begin
    miss t;
    reach_of_cfg (Cfg.of_func f)
  end
  else
    let e = entry_for t f in
    match e.e_reach with
    | Some r ->
      hit t;
      r
    | None ->
      miss t;
      let r = reach_of_cfg (cfg_of e) in
      e.e_reach <- Some r;
      r

let liveness t (f : func) : Liveness.t =
  if not t.caching then begin
    miss t;
    Liveness.analyse f
  end
  else
    let e = entry_for t f in
    match e.e_live with
    | Some lv ->
      hit t;
      lv
    | None ->
      miss t;
      let lv = Liveness.analyse f in
      e.e_live <- Some lv;
      lv

(* maximum register pressure of [f], derived from (cached) liveness *)
let pressure t (f : func) : int =
  if not t.caching then begin
    miss t;
    Liveness.max_pressure f
  end
  else
    let e = entry_for t f in
    match e.e_pressure with
    | Some p ->
      hit t;
      p
    | None ->
      miss t;
      let lv =
        match e.e_live with
        | Some lv -> lv
        | None ->
          let lv = Liveness.analyse f in
          e.e_live <- Some lv;
          lv
      in
      let p = Liveness.max_pressure_with lv f in
      e.e_pressure <- Some p;
      p

let callgraph t (m : modul) : Callgraph.t =
  if not t.caching then begin
    miss t;
    Callgraph.build m
  end
  else
    match t.cg with
    | Some cg ->
      hit t;
      cg
    | None ->
      miss t;
      let cg = Callgraph.build m in
      t.cg <- Some cg;
      cg

(* ---------- function-local passes --------------------------------------- *)

(* Run the function-local pass [pass] over every function of [m], where
   [run f] is a pure function of [f] and [env] that returns [f] itself
   when it changes nothing. Functions still physically equal to the
   record [run] last returned unchanged (under an equal [env]) are
   skipped. Returns [m] itself when no function changed. *)
let map_functions t ~pass ?(env = SSet.empty) (run : func -> func * bool) (m : modul)
    : modul * bool =
  let marks =
    if not t.caching then None
    else
      match Hashtbl.find_opt t.clean pass with
      | Some c ->
        if not (SSet.equal c.cl_env env) then begin
          Hashtbl.reset c.cl_funcs;
          c.cl_env <- env
        end;
        Some c.cl_funcs
      | None ->
        let c = { cl_env = env; cl_funcs = Hashtbl.create 16 } in
        Hashtbl.add t.clean pass c;
        Some c.cl_funcs
  in
  let is_clean f =
    match marks with
    | Some tbl -> (
      match Hashtbl.find_opt tbl f.f_name with Some g -> g == f | None -> false)
    | None -> false
  in
  let changed = ref false in
  let funcs =
    List.map
      (fun f ->
        if is_clean f then begin
          t.stats.st_clean_skips <- t.stats.st_clean_skips + 1;
          f
        end
        else begin
          let f', ch = run f in
          if ch then changed := true
          else Option.iter (fun tbl -> Hashtbl.replace tbl f.f_name f) marks;
          f'
        end)
      m.m_funcs
  in
  if !changed then ({ m with m_funcs = funcs }, true) else (m, false)

(* largest N of any [.i<N>] or [.cont<N>] label component in [m] *)
let max_site_suffix (m : modul) =
  let num s k =
    let tail = String.sub s k (String.length s - k) in
    if tail <> "" && String.for_all (fun c -> c >= '0' && c <= '9') tail then
      int_of_string_opt tail
    else None
  in
  let best = ref 0 in
  List.iter
    (fun f ->
      List.iter
        (fun b ->
          List.iter
            (fun part ->
              let v =
                if String.starts_with ~prefix:"cont" part then num part 4
                else if String.starts_with ~prefix:"i" part then num part 1
                else None
              in
              match v with Some v when v > !best -> best := v | _ -> ())
            (List.tl (String.split_on_char '.' b.b_label)))
        f.f_blocks)
    m.m_funcs;
  !best

(* A fresh inline site number for this compile; the first call seeds the
   supply past every site suffix already present in [m]. *)
let fresh_site t (m : modul) =
  let n = 1 + match t.site with Some n -> n | None -> max_site_suffix m in
  t.site <- Some n;
  n

(* ---------- invalidation ------------------------------------------------ *)

let invalidate_callgraph t =
  match t.cg with
  | None -> ()
  | Some _ ->
    t.cg <- None;
    note_invalidation t

let drop_function t name =
  if Hashtbl.mem t.entries name then begin
    Hashtbl.remove t.entries name;
    note_invalidation t
  end

(* A pass changed function [name] and declared [preserved]: drop whatever
   it clobbered. With [pr_cfg] the entry survives — the next query
   revalidates against the new func value (shape check + block refresh). *)
let invalidate_function t ~(preserved : preserved) name =
  match Hashtbl.find_opt t.entries name with
  | None -> ()
  | Some e ->
    if not preserved.pr_cfg then begin
      Hashtbl.remove t.entries name;
      note_invalidation t
    end
    else if not preserved.pr_live then
      if e.e_live <> None || e.e_pressure <> None then begin
        e.e_live <- None;
        e.e_pressure <- None;
        note_invalidation t
      end

(* Module-level invalidation after a pass reported a change: diff the
   function lists by physical identity — a pass returning a function
   record untouched declares, by construction, that it did not modify it —
   and invalidate only what was actually clobbered. *)
let invalidate t ~(preserved : preserved) ~(before : modul) ~(after : modul) =
  if t.caching then begin
    let old_by_name = Hashtbl.create 16 in
    List.iter (fun f -> Hashtbl.replace old_by_name f.f_name f) before.m_funcs;
    List.iter
      (fun f ->
        match Hashtbl.find_opt old_by_name f.f_name with
        | Some f0 when f0 == f -> () (* untouched: caches stay *)
        | _ -> invalidate_function t ~preserved f.f_name)
      after.m_funcs;
    (* functions removed by the pass *)
    let new_names =
      List.fold_left (fun acc f -> SSet.add f.f_name acc) SSet.empty after.m_funcs
    in
    List.iter
      (fun f0 -> if not (SSet.mem f0.f_name new_names) then drop_function t f0.f_name)
      before.m_funcs;
    if not preserved.pr_calls then invalidate_callgraph t
  end

(* ---------- coherence check (differential testing) ---------------------- *)

(* Structural comparisons via sorted bindings: robust against internal
   Map/Set tree-shape differences. *)
let smap_eq eq a b =
  List.length (SMap.bindings a) = List.length (SMap.bindings b)
  && List.for_all2
       (fun (k1, v1) (k2, v2) -> k1 = k2 && eq v1 v2)
       (SMap.bindings a) (SMap.bindings b)

let cfg_eq (a : Cfg.t) (b : Cfg.t) =
  a.Cfg.entry = b.Cfg.entry && a.Cfg.rpo = b.Cfg.rpo
  && smap_eq ( = ) a.Cfg.succs b.Cfg.succs
  && smap_eq
       (fun x y -> List.sort compare x = List.sort compare y)
       a.Cfg.preds b.Cfg.preds
  && smap_eq ( = ) a.Cfg.blocks b.Cfg.blocks

let dom_eq (a : Dominance.t) (b : Dominance.t) =
  a.Dominance.root = b.Dominance.root
  && smap_eq ( = ) a.Dominance.idom b.Dominance.idom
  && smap_eq ( = ) a.Dominance.depth b.Dominance.depth
  && smap_eq
       (fun x y -> List.sort compare x = List.sort compare y)
       a.Dominance.children b.Dominance.children

let reach_eq = smap_eq SSet.equal

let live_eq (a : Liveness.t) (b : Liveness.t) =
  smap_eq Liveness.RSet.equal a.Liveness.live_in b.Liveness.live_in
  && smap_eq Liveness.RSet.equal a.Liveness.live_out b.Liveness.live_out

let cg_eq (a : Callgraph.t) (b : Callgraph.t) =
  smap_eq SSet.equal a.Callgraph.callees b.Callgraph.callees
  && smap_eq SSet.equal a.Callgraph.callers b.Callgraph.callers
  && SSet.equal a.Callgraph.address_taken b.Callgraph.address_taken
  && List.sort compare a.Callgraph.kernels = List.sort compare b.Callgraph.kernels

(* Assert every cached analysis, as the manager would serve it for the
   current module, is structurally equal to a fresh recomputation. The
   stats are snapshotted so a coherence sweep does not distort hit-rate
   reporting. *)
let check_coherent t (m : modul) : (unit, string) result =
  if not t.caching then Ok ()
  else begin
    let saved = { t.stats with st_hits = t.stats.st_hits } in
    let restore () =
      t.stats.st_hits <- saved.st_hits;
      t.stats.st_misses <- saved.st_misses;
      t.stats.st_invalidations <- saved.st_invalidations
    in
    let err = ref None in
    let fail fmt = Printf.ksprintf (fun s -> if !err = None then err := Some s) fmt in
    List.iter
      (fun f ->
        match Hashtbl.find_opt t.entries f.f_name with
        | None -> ()
        | Some e ->
          let fresh_cfg = lazy (Cfg.of_func f) in
          if e.e_cfg <> None && not (cfg_eq (cfg t f) (Lazy.force fresh_cfg)) then
            fail "stale CFG for %s" f.f_name;
          if
            e.e_dom <> None
            && not (dom_eq (dominators t f) (Dominance.dominators (Lazy.force fresh_cfg)))
          then fail "stale dominator tree for %s" f.f_name;
          if
            e.e_pdom <> None
            && not
                 (dom_eq (post_dominators t f)
                    (Dominance.post_dominators (Lazy.force fresh_cfg)))
          then fail "stale post-dominator tree for %s" f.f_name;
          if
            e.e_reach <> None
            && not (reach_eq (reachability t f) (reach_of_cfg (Lazy.force fresh_cfg)))
          then fail "stale reachability for %s" f.f_name;
          if e.e_live <> None && not (live_eq (liveness t f) (Liveness.analyse f)) then
            fail "stale liveness for %s" f.f_name;
          if e.e_pressure <> None && pressure t f <> Liveness.max_pressure f then
            fail "stale pressure for %s" f.f_name)
      m.m_funcs;
    (match t.cg with
    | Some cg -> if not (cg_eq cg (Callgraph.build m)) then fail "stale call graph"
    | None -> ());
    restore ();
    match !err with None -> Ok () | Some e -> Error e
  end
