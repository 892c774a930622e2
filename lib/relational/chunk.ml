type t = { schema : Schema.t; buffer : Tuple.t array; off : int; len : int }

let default_rows = 1024

let of_array ?(off = 0) ?len schema buffer =
  let len = match len with Some l -> l | None -> Array.length buffer - off in
  if off < 0 || len < 0 || off + len > Array.length buffer then
    invalid_arg "Chunk.of_array: range out of bounds";
  { schema; buffer; off; len }

let of_rows schema rows = { schema; buffer = rows; off = 0; len = Array.length rows }

let whole r = of_rows (Relation.schema r) (Relation.rows r)

let schema c = c.schema

let length c = c.len

let is_empty c = c.len = 0

let buffer c = c.buffer

let offset c = c.off

let get c i =
  if i < 0 || i >= c.len then invalid_arg "Chunk.get: index out of bounds";
  c.buffer.(c.off + i)

let with_schema schema c =
  if Schema.arity schema <> Schema.arity c.schema then
    invalid_arg "Chunk.with_schema: arity mismatch";
  { c with schema }

let iter f c =
  for i = c.off to c.off + c.len - 1 do
    f c.buffer.(i)
  done

let fold f init c =
  let acc = ref init in
  for i = c.off to c.off + c.len - 1 do
    acc := f !acc c.buffer.(i)
  done;
  !acc

let to_rows c =
  if c.off = 0 && c.len = Array.length c.buffer then c.buffer
  else Array.sub c.buffer c.off c.len

let to_relation c = Relation.create ~check:false c.schema (to_rows c)

module Source = struct
  type chunk = t

  type t = {
    schema : Schema.t;
    mutable next_fn : unit -> chunk option;
    mutable close_fn : unit -> unit;
    mutable origin : Relation.t option;
    mutable closed : bool;
  }

  let create ?(close = fun () -> ()) ~schema next =
    { schema; next_fn = next; close_fn = close; origin = None; closed = false }

  let schema s = s.schema

  let close s =
    if not s.closed then begin
      s.closed <- true;
      s.origin <- None;
      s.next_fn <- (fun () -> None);
      let f = s.close_fn in
      s.close_fn <- (fun () -> ());
      f ()
    end

  let next s =
    s.origin <- None;
    match s.next_fn () with
    | Some _ as r -> r
    | None ->
      close s;
      None

  let origin s = s.origin

  let of_relation ?(chunk_rows = default_rows) r =
    if chunk_rows <= 0 then invalid_arg "Chunk.Source.of_relation: chunk_rows <= 0";
    let rows = Relation.rows r in
    let n = Array.length rows in
    let schema = Relation.schema r in
    let pos = ref 0 in
    let s =
      create ~schema (fun () ->
          if !pos >= n then None
          else begin
            let len = min chunk_rows (n - !pos) in
            let c = { schema; buffer = rows; off = !pos; len } in
            pos := !pos + len;
            Some c
          end)
    in
    s.origin <- Some r;
    s

  let empty schema = create ~schema (fun () -> None)

  let fold f init s =
    let rec loop acc = match next s with None -> acc | Some c -> loop (f acc c) in
    loop init

  let iter f s = fold (fun () c -> f c) () s

  let map ?schema f s =
    let schema = match schema with Some sc -> sc | None -> s.schema in
    let rec pull () =
      match next s with
      | None -> None
      | Some c ->
        let c = f c in
        if is_empty c then pull () else Some c
    in
    create ~schema ~close:(fun () -> close s) pull

  let concat a b =
    if Schema.arity a.schema <> Schema.arity b.schema then
      invalid_arg "Chunk.Source.concat: arity mismatch";
    create ~schema:a.schema
      ~close:(fun () ->
        close a;
        close b)
      (fun () -> match next a with Some _ as r -> r | None -> next b)

  let tap f s =
    let w =
      create ~schema:s.schema
        ~close:(fun () -> close s)
        (fun () ->
          match next s with
          | Some c as r ->
            f (length c);
            r
          | None -> None)
    in
    w.origin <- s.origin;
    w

  let to_relation s =
    match s.origin with
    | Some r ->
      close s;
      r
    | None ->
      let out = Vec.create ~dummy:([||] : Tuple.t) () in
      iter (fun c -> Vec.blit c.buffer c.off out (Vec.length out) c.len) s;
      Relation.create ~check:false s.schema (Vec.to_array out)
end
