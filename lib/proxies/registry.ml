(* All proxy applications, at evaluation size and at a reduced test size.
   Each proxy seeds its own PRNG, so constructing one alone generates
   exactly the data it has inside the full registry. *)

let constructors : (string * (bool -> Proxy.t)) list =
  [ ("xsbench", fun small ->
      if small then Xsbench.problem ~params:Xsbench.small () else Xsbench.problem ());
    ("rsbench", fun small ->
      if small then Rsbench.problem ~params:Rsbench.small () else Rsbench.problem ());
    ("gridmini", fun small ->
      if small then Gridmini.problem ~params:Gridmini.small ()
      else Gridmini.problem ());
    ("testsnap", fun small ->
      if small then Testsnap.problem ~params:Testsnap.small ()
      else Testsnap.problem ());
    ("minifmm", fun small ->
      if small then Minifmm.problem ~params:Minifmm.small () else Minifmm.problem ()) ]

let names = List.map fst constructors

let all () : Proxy.t list = List.map (fun (_, make) -> make false) constructors

let all_small () : Proxy.t list = List.map (fun (_, make) -> make true) constructors

(* constructs only the named proxy *)
let find ?(small = false) name : Proxy.t option =
  Option.map (fun make -> make small) (List.assoc_opt name constructors)

let find_exn ?small name =
  match find ?small name with
  | Some p -> p
  | None -> invalid_arg ("unknown proxy: " ^ name)
