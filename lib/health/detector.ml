let max_timeout ~k ~period ~grace = (float_of_int k *. period) +. grace

type t = { timeout : float; mutable last : float }

let create ~k ~period ~grace ~start =
  if k < 1 then invalid_arg "Detector.create: k must be >= 1";
  if period <= 0.0 then invalid_arg "Detector.create: period must be positive";
  if grace < 0.0 then invalid_arg "Detector.create: grace must be >= 0";
  { timeout = max_timeout ~k ~period ~grace; last = start }

let note_arrival t ~now = t.last <- Float.max t.last now

let timeout t = t.timeout

let deadline t = t.last +. t.timeout

let down t ~now = now >= deadline t

let reset t ~now = t.last <- now
