(* Virtual time is an int64 count of nanoseconds since simulation start. *)

type t = int64

let us n = Int64.of_int (n * 1_000)
let ms n = Int64.of_int (n * 1_000_000)
let sec n = Int64.of_int (n * 1_000_000_000)

let of_float_sec f = Int64.of_float (f *. 1e9)
let to_float_sec t = Int64.to_float t /. 1e9

let add = Int64.add
let sub = Int64.sub
let ( + ) = Int64.add
let ( - ) = Int64.sub

let never = Int64.max_int

let pp ppf t =
  let f = to_float_sec t in
  if f >= 1.0 then Fmt.pf ppf "%.3fs" f
  else if f >= 0.001 then Fmt.pf ppf "%.3fms" (f *. 1e3)
  else Fmt.pf ppf "%Ldns" t

let to_string t = Fmt.str "%a" pp t
