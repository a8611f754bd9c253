type t = { mutable state : int64 }

let golden_gamma = 0x9E3779B97F4A7C15L

let mix z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let create seed = { state = mix (Int64.of_int seed) }

let bits64 t =
  t.state <- Int64.add t.state golden_gamma;
  mix t.state

(* FNV-1a over the label, folded into the parent state: cheap, and collisions
   between distinct labels are practically impossible for our label set. *)
let split t label =
  let h = ref 0xCBF29CE484222325L in
  String.iter
    (fun c ->
      h := Int64.logxor !h (Int64.of_int (Char.code c));
      h := Int64.mul !h 0x100000001B3L)
    label;
  { state = mix (Int64.logxor t.state !h) }

let float t =
  (* 53 high-quality bits -> [0, 1) *)
  let bits = Int64.shift_right_logical (bits64 t) 11 in
  Int64.to_float bits *. (1.0 /. 9007199254740992.0)

let int t n =
  if n <= 0 then invalid_arg "Rng.int: bound must be positive";
  if n land (n - 1) = 0 then
    (* power of two: mask the low bits of one draw *)
    Int64.to_int (Int64.logand (bits64 t) (Int64.of_int (n - 1)))
  else begin
    let bound = Int64.of_int n in
    let rec draw () =
      let bits = Int64.shift_right_logical (bits64 t) 1 in
      let r = Int64.rem bits bound in
      (* Reject draws from the final partial block of [0, 2^63): [bits - r]
         is the block base, and adding [n - 1] overflows exactly when the
         block extends past 2^63 - 1.  Without this the residues below
         [2^63 mod n] are over-represented — and the previous float-scaling
         implementation additionally zeroed the low bits of results for
         bounds beyond 2^53. *)
      if Int64.add (Int64.sub bits r) (Int64.of_int (n - 1)) < 0L then draw ()
      else Int64.to_int r
    in
    draw ()
  end

let uniform_int t lo hi =
  if hi < lo then invalid_arg "Rng.uniform_int: hi < lo";
  lo + int t (hi - lo + 1)

let uniform_float t lo hi = lo +. (float t *. (hi -. lo))

let exponential t ~mean =
  if mean < 0.0 then invalid_arg "Rng.exponential: negative mean";
  if mean = 0.0 then 0.0 else -.mean *. log (1.0 -. float t)

let bernoulli t p = float t < p
