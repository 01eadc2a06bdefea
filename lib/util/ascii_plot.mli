(** Terminal line charts for the benchmark harness.

    Each reproduced figure prints its data table and, through this module,
    an ASCII rendering of the series so the shape (crossovers, plateaus,
    convergence) is visible without exporting CSV to a plotting tool. *)

type series = { label : string; points : (float * float) list }

val render :
  ?width:int ->
  ?height:int ->
  ?x_label:string ->
  title:string ->
  series list ->
  string
(** Render series into a [width] x [height] character grid (defaults
    64 x 16) with axis annotations. Each series is drawn with its own
    marker character; a legend maps markers to labels. Points sharing a
    cell show the later series' marker. *)

val print :
  ?width:int ->
  ?height:int ->
  ?x_label:string ->
  title:string ->
  series list ->
  unit

val sparkline : ?width:int -> float list -> string
(** One-line unicode sparkline (block characters U+2581..U+2588),
    normalised to the series range. Series longer than [width]
    (default 60) are downsampled by bucket maximum so short spikes stay
    visible. Empty input yields the empty string. *)
