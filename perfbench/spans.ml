(* The benchmark's own span recorder.  Spans are taken around calls into
   the library's public functions, never inside it, so the library's own
   tracing ([Subql_obs.Trace]) stays off and its hot paths unchanged.
   Spans are kept in memory and written out once, at the end of a run. *)

type span = {
  id : int;
  parent : int;  (** [-1] at top level *)
  req : int;  (** the request (or batch / append) the span belongs to *)
  name : string;
  start : float;
  stop : float;
}

type t = {
  enabled : bool;
  mutable spans : span list;
  mutable next_id : int;
  mutable stack : int list;
}

let create ~enabled = { enabled; spans = []; next_id = 0; stack = [] }

let enabled t = t.enabled

let with_ t ~req name f =
  if not t.enabled then f ()
  else begin
    let id = t.next_id in
    t.next_id <- id + 1;
    let parent = match t.stack with p :: _ -> p | [] -> -1 in
    t.stack <- id :: t.stack;
    let start = Unix.gettimeofday () in
    Fun.protect
      ~finally:(fun () ->
        let stop = Unix.gettimeofday () in
        t.stack <- List.tl t.stack;
        t.spans <- { id; parent; req; name; start; stop } :: t.spans)
      f
  end

(* Total seconds and number of spans with this name. *)
let total t name =
  List.fold_left
    (fun (s, n) sp -> if sp.name = name then (s +. (sp.stop -. sp.start), n + 1) else (s, n))
    (0., 0) t.spans

(* Chrome-tracing JSON: one complete ("X") event per span. *)
let to_json t =
  let module J = Subql_obs.Json in
  let origin = List.fold_left (fun m sp -> min m sp.start) infinity t.spans in
  let us x = J.Float (Float.round ((x -. origin) *. 1e7) /. 10.) in
  J.Obj
    [
      ( "traceEvents",
        J.List
          (List.rev_map
             (fun sp ->
               J.Obj
                 [
                   ("name", J.Str sp.name);
                   ("ph", J.Str "X");
                   ("ts", us sp.start);
                   ("dur", J.Float (Float.round ((sp.stop -. sp.start) *. 1e7) /. 10.));
                   ("pid", J.Int 1);
                   ("tid", J.Int 1);
                   ( "args",
                     J.Obj
                       [ ("id", J.Int sp.id); ("parent", J.Int sp.parent); ("req", J.Int sp.req) ]
                   );
                 ])
             t.spans) );
    ]
