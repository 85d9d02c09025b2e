(* The 64-bit state lives unboxed in 8 bytes: a [mutable int64] record
   field is a pointer to a boxed int64, so every draw that stored the new
   state would allocate. Reads and writes go through
   [Bytes.get_int64_le]/[set_int64_le], which the native compiler keeps
   unboxed, so [next] inlined into [int] allocates nothing. *)
type t = Bytes.t

let[@inline] get t = Bytes.get_int64_le t 0

let of_state state =
  let t = Bytes.create 8 in
  Bytes.set_int64_le t 0 state;
  t

let make seed = of_state (Int64.of_int seed)

let golden = 0x9E3779B97F4A7C15L

(* The splitmix64 output function. *)
let[@inline] mix z =
  let open Int64 in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)

(* splitmix64 core step: good statistical quality, trivially seedable. *)
let[@inline] next t =
  let s = Int64.add (get t) golden in
  Bytes.set_int64_le t 0 s;
  mix s

(* Unbiased draw via rejection sampling. The previous implementation
   reduced a 63-bit draw with [Int64.rem] alone, which is modulo-biased:
   [0, 2^63) splits into [floor(2^63 / bound)] full cycles plus a partial
   one, so residues below [2^63 mod bound] were more likely than the rest.
   For the small bounds used by workload generators the excess is
   unobservable (~bound/2^63), but for bounds within a factor of a few of
   [max_int] — exactly the regime of the sampling estimators' keyed cell
   draws — some values were up to 1.5x as likely as others. Accept only
   draws below the largest multiple of [bound] that fits in [0, 2^63):
   within that prefix every residue appears equally often. Rejection
   probability is [(2^63 mod bound) / 2^63] < 1/2, so the loop terminates
   quickly with probability 1; for bounds that are small or a power of two
   it never rejects and the emitted sequence matches the old one.

   [v - r] is the multiple of [b] at or below [v], where [r = v mod b]; it
   exceeds [max_int - (b - 1)] iff [v] lies in the final partial cycle. *)
let[@inline] rejected v r b =
  Int64.sub v r > Int64.sub Int64.max_int (Int64.sub b 1L)

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive"
  else begin
    let b = Int64.of_int bound in
    let r = ref 0L in
    let reject = ref true in
    while !reject do
      let v = Int64.logand (next t) Int64.max_int in
      r := Int64.rem v b;
      reject := rejected v !r b
    done;
    Int64.to_int !r
  end

(* [int] in bulk. The state stays in a local across the loop and is stored
   once at the end: through [next], every draw would load and store it. *)
let fill t bound dst =
  let n = Array.length dst in
  if n > 0 && bound <= 0 then invalid_arg "Rng.fill: bound must be positive";
  let b = Int64.of_int bound in
  let s = ref (get t) and k = ref 0 in
  while !k < n do
    s := Int64.add !s golden;
    let v = Int64.logand (mix !s) Int64.max_int in
    let r = Int64.rem v b in
    if not (rejected v r b) then begin
      dst.(!k) <- Int64.to_int r;
      incr k
    end
  done;
  Bytes.set_int64_le t 0 !s

let float t bound =
  let mantissa = Int64.to_int (Int64.shift_right_logical (next t) 11) in
  bound *. (float_of_int mantissa /. 9007199254740992.0)

let pick t = function
  | [] -> invalid_arg "Rng.pick: empty list"
  | items -> List.nth items (int t (List.length items))

(* Fisher-Yates. The previous sort-by-random-key scheme was biased: keys
   drawn from a finite range collide, and [List.sort] is stable, so tied
   elements kept their input order more often than a uniform shuffle
   allows. *)
let shuffle t items =
  let arr = Array.of_list items in
  for i = Array.length arr - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done;
  Array.to_list arr

let split t = of_state (next t)

(* Keyed substream: the state a plain [split] chain would reach after [key]
   steps, computed directly (one multiply) and finalized through the
   splitmix64 mixer so adjacent keys decorrelate. [t] is not advanced, so
   [split_key t k] depends only on [(t's current state, k)] — the property
   that makes per-cell sampling streams independent of which worker domain
   evaluates which cell. The result is [next] of a probe generator at
   [state + golden * key], without building the probe. *)
let split_key t key =
  let probe = Int64.add (get t) (Int64.mul golden (Int64.of_int key)) in
  of_state (mix (Int64.add probe golden))
