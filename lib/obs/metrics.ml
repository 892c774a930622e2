type counter = { mutable c : int }

type gauge = { mutable g : float }

type histogram = {
  upper : float array;  (* ascending, last = infinity *)
  counts : int array;
  mutable n : int;
  mutable total : float;
}

type metric = Counter of counter | Gauge of gauge | Histogram of histogram

type t = { table : (string, metric) Hashtbl.t }

let create () = { table = Hashtbl.create 64 }

let default = create ()

let kind_name = function
  | Counter _ -> "counter"
  | Gauge _ -> "gauge"
  | Histogram _ -> "histogram"

let register t name make match_existing =
  match Hashtbl.find_opt t.table name with
  | None ->
    let m = make () in
    Hashtbl.replace t.table name m;
    m
  | Some existing -> (
    match match_existing existing with
    | Some m -> m
    | None ->
      invalid_arg
        (Printf.sprintf "Metrics: %S is already registered as a %s" name
           (kind_name existing)))

let counter t name =
  match
    register t name
      (fun () -> Counter { c = 0 })
      (function Counter _ as m -> Some m | _ -> None)
  with
  | Counter c -> c
  | _ -> assert false

let incr ?(by = 1) c =
  if by < 0 then invalid_arg "Metrics.incr: counters only go up";
  c.c <- c.c + by

let counter_value c = c.c

let counter_value_by_name t name =
  match Hashtbl.find_opt t.table name with Some (Counter c) -> c.c | _ -> 0

let gauge t name =
  match
    register t name
      (fun () -> Gauge { g = 0. })
      (function Gauge _ as m -> Some m | _ -> None)
  with
  | Gauge g -> g
  | _ -> assert false

let set g v = g.g <- v

let gauge_value g = g.g

let default_buckets =
  [ 1e-6; 1e-5; 1e-4; 5e-4; 1e-3; 5e-3; 1e-2; 5e-2; 1e-1; 5e-1; 1.; 5.; 10. ]

let histogram ?(buckets = default_buckets) t name =
  let make () =
    if buckets = [] then invalid_arg "Metrics.histogram: empty bucket list";
    if List.exists (fun b -> not (Float.is_finite b)) buckets then
      invalid_arg "Metrics.histogram: bucket bounds must be finite";
    let upper =
      Array.of_list (List.sort_uniq Float.compare buckets @ [ infinity ])
    in
    Histogram { upper; counts = Array.make (Array.length upper) 0; n = 0; total = 0. }
  in
  match register t name make (function Histogram _ as m -> Some m | _ -> None) with
  | Histogram h -> h
  | _ -> assert false

let observe h v =
  (* First bucket with v <= upper bound; the infinity bucket always matches. *)
  let rec find i = if v <= h.upper.(i) then i else find (i + 1) in
  let i = find 0 in
  h.counts.(i) <- h.counts.(i) + 1;
  h.n <- h.n + 1;
  h.total <- h.total +. v

type histogram_snapshot = {
  upper_bounds : float array;
  bucket_counts : int array;
  count : int;
  sum : float;
}

type snapshot = {
  counters : (string * int) list;
  gauges : (string * float) list;
  histograms : (string * histogram_snapshot) list;
}

let snapshot t =
  let counters = ref [] and gauges = ref [] and histograms = ref [] in
  Hashtbl.iter
    (fun name -> function
      | Counter c -> counters := (name, c.c) :: !counters
      | Gauge g -> gauges := (name, g.g) :: !gauges
      | Histogram h ->
        histograms :=
          ( name,
            {
              upper_bounds = Array.copy h.upper;
              bucket_counts = Array.copy h.counts;
              count = h.n;
              sum = h.total;
            } )
          :: !histograms)
    t.table;
  let by_name (a, _) (b, _) = String.compare a b in
  {
    counters = List.sort by_name !counters;
    gauges = List.sort by_name !gauges;
    histograms = List.sort by_name !histograms;
  }

let quantile h q =
  if q < 0. || q > 1. then invalid_arg "Metrics.quantile: q must be in [0, 1]";
  if h.count = 0 then 0.
  else begin
    (* Prometheus-style estimator: find the bucket containing the
       q-th observation, interpolate linearly inside it. *)
    let target = q *. float_of_int h.count in
    let n = Array.length h.upper_bounds in
    let rec find i cum =
      let cum' = cum + h.bucket_counts.(i) in
      if float_of_int cum' >= target || i = n - 1 then (i, cum) else find (i + 1) cum'
    in
    let i, before = find 0 0 in
    let lower = if i = 0 then 0. else h.upper_bounds.(i - 1) in
    if not (Float.is_finite h.upper_bounds.(i)) then lower
    else if h.bucket_counts.(i) = 0 then lower
    else
      lower
      +. (h.upper_bounds.(i) -. lower)
         *. ((target -. float_of_int before) /. float_of_int h.bucket_counts.(i))
  end

let reset t =
  Hashtbl.iter
    (fun _ -> function
      | Counter c -> c.c <- 0
      | Gauge g -> g.g <- 0.
      | Histogram h ->
        Array.fill h.counts 0 (Array.length h.counts) 0;
        h.n <- 0;
        h.total <- 0.)
    t.table

let pp ppf t =
  let s = snapshot t in
  List.iter (fun (name, v) -> Format.fprintf ppf "%-44s %d@." name v) s.counters;
  List.iter (fun (name, v) -> Format.fprintf ppf "%-44s %g@." name v) s.gauges;
  List.iter
    (fun (name, h) ->
      Format.fprintf ppf "%-44s count %d, sum %g@." name h.count h.sum;
      Array.iteri
        (fun i c ->
          if c > 0 then
            Format.fprintf ppf "  %-42s %d@."
              (if Float.is_finite h.upper_bounds.(i) then
                 Printf.sprintf "le %g" h.upper_bounds.(i)
               else "le +inf")
              c)
        h.bucket_counts)
    s.histograms

let render t = Format.asprintf "%a" pp t
