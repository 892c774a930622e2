(** SQL aggregate functions with standard NULL semantics.

    [Count_star] counts rows; [Count e] counts rows where [e] is not
    NULL; [Sum]/[Min]/[Max]/[Avg] ignore NULLs and yield NULL on an
    empty (or all-NULL) input — the behaviour the paper's ALL-vs-max
    footnote hinges on.  [First e] yields the first non-NULL value of
    [e] in detail arrival order (NULL on an empty or all-NULL input). *)

type func =
  | Count_star
  | Count of Expr.t
  | Sum of Expr.t
  | Min of Expr.t
  | Max of Expr.t
  | Avg of Expr.t
  | First of Expr.t

type spec = { func : func; name : string }
(** [name] is the output column name (the [f(y) → fy] renaming). *)

val count_star : string -> spec
val count : Expr.t -> string -> spec
val sum : Expr.t -> string -> spec
val min_ : Expr.t -> string -> spec
val max_ : Expr.t -> string -> spec
val avg : Expr.t -> string -> spec
val first : Expr.t -> string -> spec

val output_ty : Schema.t array -> spec -> Value.ty
(** Result type of the aggregate over rows of the innermost frame. *)

val func_to_string : func -> string

val pp_spec : Format.formatter -> spec -> unit

(** {1 Accumulators}

    [compile frames spec] resolves the aggregated expression once;
    [make compiled] then creates a fresh mutable accumulator.  [step]
    feeds one tuple stack (innermost frame = the detail tuple);
    [value] reads off the current aggregate. *)

type compiled

type acc

val compile : Schema.t array -> spec -> compiled

val make : compiled -> acc

val step : acc -> Tuple.t array -> unit

val step_back : acc -> Tuple.t array -> unit
(** Retract one previously-fed tuple stack — the inverse of {!step},
    used for incremental view maintenance under deletions.  COUNT, SUM
    and AVG are self-inverting (their state nullifies correctly when the
    contribution count returns to zero); MIN, MAX and FIRST are not
    incrementally maintainable downward.
    @raise Invalid_argument for MIN/MAX/FIRST accumulators. *)

val value : acc -> Value.t
