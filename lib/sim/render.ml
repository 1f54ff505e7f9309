(* Digits are counted and written from a non-positive value, so that
   [min_int], whose magnitude no [int] holds, renders like the rest. *)
let rec digits m k = if m > -10 then k else digits (m / 10) (k + 1)

let int_width n = if n < 0 then digits n 2 else digits (-n) 1

(* Writes [m]'s digits, [m <= 0], ending at [i]. *)
let rec put_digits b m i =
  Bytes.set b i (Char.unsafe_chr (48 - (m mod 10)));
  if m <= -10 then put_digits b (m / 10) (i - 1)

let put_int b pos n =
  let w = int_width n in
  if n < 0 then begin
    Bytes.set b pos '-';
    put_digits b n (pos + w - 1)
  end
  else put_digits b (-n) (pos + w - 1);
  pos + w

let put_string b pos s =
  let len = String.length s in
  Bytes.blit_string s 0 b pos len;
  pos + len
