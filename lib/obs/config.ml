type t = {
  trace : bool;
  series : bool;
  sample_interval : float;
  profile : bool;
  spans : bool;
  metrics : bool;
  causal : bool;
  limit : int;
}

let default_interval = 10.0

let off =
  {
    trace = false;
    series = false;
    sample_interval = default_interval;
    profile = false;
    spans = false;
    metrics = false;
    causal = false;
    limit = Ring.default_limit;
  }

let make ?(trace = false) ?(series = false)
    ?(sample_interval = default_interval) ?(profile = false) ?(spans = false)
    ?(metrics = false) ?(causal = false) ?(limit = Ring.default_limit) () =
  if limit < 1 then invalid_arg "Obs.Config.make: limit < 1";
  if sample_interval <= 0.0 then
    invalid_arg "Obs.Config.make: sample_interval <= 0";
  { trace; series; sample_interval; profile; spans; metrics; causal; limit }

let trace_only = make ~trace:true ()
let full = make ~trace:true ~series:true ~profile:true ~spans:true ~metrics:true ()
let latency = make ~spans:true ~metrics:true ()
let causal = make ~spans:true ~metrics:true ~causal:true ()
let enabled t =
  t.trace || t.series || t.profile || t.spans || t.metrics || t.causal
