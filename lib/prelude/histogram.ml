type t = {
  lo : int;
  hi : int;
  width : int;          (* bin width *)
  counts : int array;
  total : int;
}

let of_samples ~bins samples =
  if bins <= 0 then invalid_arg "Histogram.of_samples: bins must be positive";
  match samples with
  | [] -> invalid_arg "Histogram.of_samples: empty sample list"
  | first :: rest ->
    let lo = List.fold_left Stdlib.min first rest in
    let hi = List.fold_left Stdlib.max first rest in
    (* hi - lo + 1 silently wraps for extreme samples (e.g. min_int and
       max_int together), leaving a non-positive width and a
       Division_by_zero in the binning below — reject the range instead.
       The true difference is >= 0, so a negative [hi - lo] means the
       subtraction itself wrapped; [hi - lo = max_int] means the + 1
       would. *)
    if hi - lo < 0 || hi - lo = max_int then
      invalid_arg
        "Histogram.of_samples: sample range too wide (hi - lo + 1 exceeds \
         the native int range)";
    let span = hi - lo + 1 in
    let width = (span + bins - 1) / bins in
    let counts = Array.make bins 0 in
    let add x =
      let idx = Stdlib.min (bins - 1) ((x - lo) / width) in
      counts.(idx) <- counts.(idx) + 1
    in
    List.iter add samples;
    { lo; hi; width; counts; total = List.length samples }

(* The nominal upper edge lo + (i+1)*width - 1 overshoots the support when
   bins doesn't divide the span (e.g. 10 samples over 0..9 in 3 bins of
   width 4 would display "8..11" for a histogram whose largest sample is
   9) — clamp to the observed maximum so rendered Figure-1 bucket ranges
   never overstate it. A trailing bin that lies entirely above the support
   keeps count 0 and collapses to the empty range (hi, hi). *)
let bins t =
  Array.to_list
    (Array.mapi
       (fun i c ->
          let lo = Stdlib.min t.hi (t.lo + (i * t.width)) in
          let hi = Stdlib.min t.hi (t.lo + ((i + 1) * t.width) - 1) in
          (lo, hi, c))
       t.counts)

let total t = t.total
let min_sample t = t.lo
let max_sample t = t.hi

let bar_width = 40

let render ?(markers = []) t =
  let buf = Buffer.create 256 in
  let peak = Array.fold_left Stdlib.max 1 t.counts in
  let bar count =
    let len = count * bar_width / peak in
    (* Integer truncation draws nothing for small-but-occupied bins next
       to a tall peak; an occupied bucket must never render as empty, so
       floor at one '#' for any nonzero count. *)
    let len = if count > 0 && len = 0 then 1 else len in
    String.make len '#'
  in
  List.iter
    (fun (lo, hi, count) ->
       Buffer.add_string buf
         (Printf.sprintf "%6d..%6d | %-*s %d\n" lo hi bar_width (bar count)
            count))
    (bins t);
  List.iter
    (fun (name, x) ->
       Buffer.add_string buf (Printf.sprintf "%-6s = %d\n" name x))
    markers;
  Buffer.contents buf
