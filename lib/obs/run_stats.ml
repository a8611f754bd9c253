(* Run-quality statistics: how tight are the numbers a simulation run (or
   a set of replications) reports?

   Everything here is dependency-free numerics: the Student-t quantile is
   computed from the regularized incomplete beta function (continued
   fraction, Numerical Recipes style) and inverted by bisection, which is
   far more than accurate enough for confidence intervals on a handful of
   replications.  The Welch warmup diagnostic smooths a sampled series and
   asks when it settles into its steady-state band. *)

(* ------------------------------------------------------------------ *)
(* Special functions                                                   *)
(* ------------------------------------------------------------------ *)

(* Lanczos approximation (g = 7, 9 coefficients): |relative error| below
   1e-13 over the positive reals, with the reflection formula for x < 0.5. *)
let rec ln_gamma x =
  if x < 0.5 then
    log (Float.pi /. sin (Float.pi *. x)) -. ln_gamma (1.0 -. x)
  else begin
    let c =
      [|
        0.99999999999980993; 676.5203681218851; -1259.1392167224028;
        771.32342877765313; -176.61502916214059; 12.507343278686905;
        -0.13857109526572012; 9.9843695780195716e-6; 1.5056327351493116e-7;
      |]
    in
    let x = x -. 1.0 in
    let acc = ref c.(0) in
    for i = 1 to 8 do
      acc := !acc +. (c.(i) /. (x +. float_of_int i))
    done;
    let t = x +. 7.5 in
    (0.5 *. log (2.0 *. Float.pi))
    +. ((x +. 0.5) *. log t)
    -. t +. log !acc
  end

(* Continued-fraction evaluation of the incomplete beta (Lentz's method). *)
let betacf a b x =
  let max_iter = 300 and eps = 3e-16 and fpmin = 1e-300 in
  let qab = a +. b and qap = a +. 1.0 and qam = a -. 1.0 in
  let c = ref 1.0 in
  let d = ref (1.0 -. (qab *. x /. qap)) in
  if Float.abs !d < fpmin then d := fpmin;
  d := 1.0 /. !d;
  let h = ref !d in
  (try
     for m = 1 to max_iter do
       let mf = float_of_int m in
       let m2 = 2.0 *. mf in
       let aa = mf *. (b -. mf) *. x /. ((qam +. m2) *. (a +. m2)) in
       d := 1.0 +. (aa *. !d);
       if Float.abs !d < fpmin then d := fpmin;
       c := 1.0 +. (aa /. !c);
       if Float.abs !c < fpmin then c := fpmin;
       d := 1.0 /. !d;
       h := !h *. !d *. !c;
       let aa =
         -.(a +. mf) *. (qab +. mf) *. x /. ((a +. m2) *. (qap +. m2))
       in
       d := 1.0 +. (aa *. !d);
       if Float.abs !d < fpmin then d := fpmin;
       c := 1.0 +. (aa /. !c);
       if Float.abs !c < fpmin then c := fpmin;
       d := 1.0 /. !d;
       let del = !d *. !c in
       h := !h *. del;
       if Float.abs (del -. 1.0) < eps then raise Exit
     done
   with Exit -> ());
  !h

(* Regularized incomplete beta function I_x(a, b). *)
let reg_inc_beta a b x =
  if x <= 0.0 then 0.0
  else if x >= 1.0 then 1.0
  else begin
    let ln_bt =
      ln_gamma (a +. b) -. ln_gamma a -. ln_gamma b
      +. (a *. log x)
      +. (b *. log (1.0 -. x))
    in
    let bt = exp ln_bt in
    if x < (a +. 1.0) /. (a +. b +. 2.0) then bt *. betacf a b x /. a
    else 1.0 -. (bt *. betacf b a (1.0 -. x) /. b)
  end

let t_cdf ~df t =
  if df <= 0.0 then invalid_arg "Run_stats.t_cdf: df must be positive";
  if t = 0.0 then 0.5
  else begin
    let x = df /. (df +. (t *. t)) in
    let p = 0.5 *. reg_inc_beta (df /. 2.0) 0.5 x in
    if t > 0.0 then 1.0 -. p else p
  end

let rec t_quantile ~df p =
  if df <= 0.0 then invalid_arg "Run_stats.t_quantile: df must be positive";
  if p <= 0.0 || p >= 1.0 then
    invalid_arg "Run_stats.t_quantile: p outside (0,1)";
  if p < 0.5 then -.t_quantile ~df (1.0 -. p)
  else if p = 0.5 then 0.0
  else begin
    (* bracket the quantile, then bisect the monotone CDF *)
    let hi = ref 1.0 in
    while t_cdf ~df !hi < p && !hi < 1e9 do
      hi := !hi *. 2.0
    done;
    let lo = ref 0.0 in
    for _ = 1 to 120 do
      let mid = 0.5 *. (!lo +. !hi) in
      if t_cdf ~df mid < p then lo := mid else hi := mid
    done;
    0.5 *. (!lo +. !hi)
  end

(* ------------------------------------------------------------------ *)
(* Confidence intervals                                                *)
(* ------------------------------------------------------------------ *)

type ci = {
  ci_n : int;
  ci_mean : float;
  ci_half : float;  (* nan when n < 2 *)
  ci_confidence : float;
}

let available c = c.ci_n >= 2 && not (Float.is_nan c.ci_half)

let mean_ci ?(confidence = 0.95) xs =
  if confidence <= 0.0 || confidence >= 1.0 then
    invalid_arg "Run_stats.mean_ci: confidence outside (0,1)";
  let n = Array.length xs in
  if n = 0 then
    { ci_n = 0; ci_mean = 0.0; ci_half = Float.nan; ci_confidence = confidence }
  else begin
    let mean = Array.fold_left ( +. ) 0.0 xs /. float_of_int n in
    if n < 2 then
      { ci_n = n; ci_mean = mean; ci_half = Float.nan; ci_confidence = confidence }
    else begin
      let ss =
        Array.fold_left
          (fun a x ->
            let d = x -. mean in
            a +. (d *. d))
          0.0 xs
      in
      let var = ss /. float_of_int (n - 1) in
      let t =
        t_quantile ~df:(float_of_int (n - 1))
          (1.0 -. ((1.0 -. confidence) /. 2.0))
      in
      {
        ci_n = n;
        ci_mean = mean;
        ci_half = t *. sqrt (var /. float_of_int n);
        ci_confidence = confidence;
      }
    end
  end

let ci_lo c = if available c then c.ci_mean -. c.ci_half else Float.nan
let ci_hi c = if available c then c.ci_mean +. c.ci_half else Float.nan

let rel_half_width c =
  if not (available c) || c.ci_mean = 0.0 then None
  else Some (c.ci_half /. Float.abs c.ci_mean)

(* Pooled precision of a whole figure/table: the mean relative half-width
   over the cells that have one. *)
let pooled_rel_half_width cis =
  let rs = List.filter_map rel_half_width cis in
  match rs with
  | [] -> None
  | _ ->
      Some (List.fold_left ( +. ) 0.0 rs /. float_of_int (List.length rs))

let half_string ?(digits = 3) c =
  if available c then Printf.sprintf "%.*f" digits c.ci_half else "n/a"

(* ------------------------------------------------------------------ *)
(* Batch means (single long run)                                       *)
(* ------------------------------------------------------------------ *)

(* The classic batch-means estimator: chop one long (post-warmup) stream
   of observations into [batches] contiguous batches, treat the batch
   means as approximately independent, and apply the Student-t interval
   to them.  When the stream does not divide evenly the OLDEST remainder
   observations are dropped, biasing the estimate toward the
   steady-state tail. *)
let batch_means ?(confidence = 0.95) ?(batches = 20) xs =
  let n = Array.length xs in
  if batches < 2 then invalid_arg "Run_stats.batch_means: need >= 2 batches";
  if n < 4 then None
  else begin
    let k = min batches (n / 2) in
    let m = n / k in
    let off = n - (k * m) in
    let means =
      Array.init k (fun i ->
          let s = ref 0.0 in
          for j = 0 to m - 1 do
            s := !s +. xs.(off + (i * m) + j)
          done;
          !s /. float_of_int m)
    in
    Some (mean_ci ~confidence means)
  end

(* ------------------------------------------------------------------ *)
(* Welch warmup-adequacy diagnostic                                    *)
(* ------------------------------------------------------------------ *)

type warmup = {
  wu_samples : int;
  wu_warmup_end : float;
  wu_settle : float option;
      (* earliest sampled time from which the smoothed curve stays inside
         the steady-state band; None when it never settles *)
  wu_tail_mean : float;
  wu_adequate : bool;
}

let moving_average ~window xs =
  let n = Array.length xs in
  Array.init n (fun i ->
      let lo = max 0 (i - window) and hi = min (n - 1) (i + window) in
      let s = ref 0.0 in
      for j = lo to hi do
        s := !s +. xs.(j)
      done;
      !s /. float_of_int (hi - lo + 1))

let warmup_diagnostic ?(band = 0.05) ?window ~warmup_end ~times values =
  let n = Array.length values in
  if Array.length times <> n then
    invalid_arg "Run_stats.warmup_diagnostic: times/values length mismatch";
  if n < 4 then
    (* too short to judge; report inconclusive-but-adequate so that short
       smoke runs do not cry wolf *)
    {
      wu_samples = n;
      wu_warmup_end = warmup_end;
      wu_settle = None;
      wu_tail_mean =
        (if n = 0 then 0.0
         else Array.fold_left ( +. ) 0.0 values /. float_of_int n);
      wu_adequate = true;
    }
  else begin
    let window = match window with Some w -> max 1 w | None -> max 1 (n / 10) in
    let s = moving_average ~window values in
    let tail_from = n / 2 in
    let tail_mean =
      let acc = ref 0.0 in
      for i = tail_from to n - 1 do
        acc := !acc +. s.(i)
      done;
      !acc /. float_of_int (n - tail_from)
    in
    let spread =
      let lo = ref infinity and hi = ref neg_infinity in
      Array.iter
        (fun v ->
          if v < !lo then lo := v;
          if v > !hi then hi := v)
        s;
      !hi -. !lo
    in
    let tol = band *. Float.max (Float.abs tail_mean) spread in
    (* scan backward for the first index violating the band; everything
       after it is settled *)
    let settle_idx = ref 0 in
    (try
       for i = n - 1 downto 0 do
         if Float.abs (s.(i) -. tail_mean) > tol then begin
           settle_idx := i + 1;
           raise Exit
         end
       done
     with Exit -> ());
    let settle =
      if !settle_idx >= n then None else Some times.(!settle_idx)
    in
    let adequate =
      match settle with Some t -> t <= warmup_end | None -> false
    in
    {
      wu_samples = n;
      wu_warmup_end = warmup_end;
      wu_settle = settle;
      wu_tail_mean = tail_mean;
      wu_adequate = adequate;
    }
  end
