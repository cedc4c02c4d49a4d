type t = {
  regs : int array;
  mutable n : bool;
  mutable z : bool;
  mutable c : bool;
  mutable v : bool;
}

let mask32 v = v land 0xFFFFFFFF

let create ?(sp = 0) ?(pc = 0) () =
  let regs = Array.make 16 0 in
  regs.(13) <- mask32 sp;
  regs.(15) <- mask32 pc;
  { regs; n = false; z = false; c = false; v = false }

let reset ~sp ~pc t =
  Array.fill t.regs 0 16 0;
  t.regs.(13) <- mask32 sp;
  t.regs.(15) <- mask32 pc;
  t.n <- false;
  t.z <- false;
  t.c <- false;
  t.v <- false

let copy t = { t with regs = Array.copy t.regs }

let pp ppf t =
  for i = 0 to 15 do
    if i mod 4 = 0 && i > 0 then Fmt.cut ppf ();
    Fmt.pf ppf "%a=0x%08x " Thumb.Reg.pp (Thumb.Reg.of_int i) t.regs.(i)
  done;
  Fmt.pf ppf "[%c%c%c%c]"
    (if t.n then 'N' else '-')
    (if t.z then 'Z' else '-')
    (if t.c then 'C' else '-')
    (if t.v then 'V' else '-')
