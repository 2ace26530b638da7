(* Interpreter semantics tests: the ground truth must itself be right. *)

open Ipcp_frontend
module Interp = Ipcp_interp.Interp

let run ?input ?seed src =
  Interp.run ?input ?seed (Sema.parse_and_analyze ~file:"<interp>" src)

let check_output name src expected =
  Alcotest.test_case name `Quick (fun () ->
      let r = run src in
      (match r.Interp.status with
      | Interp.Completed | Interp.Stopped -> ()
      | s -> Alcotest.failf "unexpected status %a" Interp.pp_status s);
      Alcotest.(check (list int)) "output" expected r.Interp.output)

(* a fault names the statement whose evaluation raised it, line and
   column *)
let check_fault name src expected =
  Alcotest.test_case name `Quick (fun () ->
      match (run src).Interp.status with
      | Interp.Fault m -> Alcotest.(check string) "fault" expected m
      | s -> Alcotest.failf "expected a fault, got %a" Interp.pp_status s)

let tests =
  [
    check_output "arithmetic and precedence"
      "PROGRAM p\nINTEGER x\nx = 2 + 3 * 4 - 6 / 2\nPRINT *, x, 2 ** 3 ** 2, -2 ** 2\nEND\n"
      (* 2+12-3 = 11; ** right-assoc: 2^(3^2) = 512; (-2)**2 = 4 per our
         parse (unary binds the base) *)
      [ 11; 512; 4 ];
    check_output "integer division truncates toward zero"
      "PROGRAM p\nPRINT *, 7 / 2, -7 / 2, mod(7, 2), mod(-7, 2)\nEND\n"
      [ 3; -3; 1; -1 ];
    check_output "intrinsics"
      "PROGRAM p\nPRINT *, max(3, -4), min(3, -4), abs(-9)\nEND\n"
      [ 3; -4; 9 ];
    check_output "do loop accumulates"
      "PROGRAM p\nINTEGER i, s\ns = 0\nDO i = 1, 5\n s = s + i\nENDDO\nPRINT *, s, i\nEND\n"
      (* after the loop the index has run past the limit *)
      [ 15; 6 ];
    check_output "do with negative step"
      "PROGRAM p\nINTEGER i, s\ns = 0\nDO i = 5, 1, -2\n s = s + i\nENDDO\nPRINT *, s\nEND\n"
      [ 9 ];
    check_output "zero-trip do still assigns the index"
      "PROGRAM p\nINTEGER i, s\ns = 0\nDO i = 3, 1\n s = 99\nENDDO\nPRINT *, s, i\nEND\n"
      [ 0; 3 ];
    check_output "do bounds evaluated once"
      "PROGRAM p\nINTEGER i, n, s\nn = 3\ns = 0\nDO i = 1, n\n n = 100\n s = s + 1\nENDDO\nPRINT *, s\nEND\n"
      [ 3 ];
    check_output "while loop"
      "PROGRAM p\nINTEGER i\ni = 1\nWHILE (i .LT. 100)\n i = i * 2\nENDWHILE\nPRINT *, i\nEND\n"
      [ 128 ];
    check_output "by-reference parameters mutate the caller"
      {|
PROGRAM p
  INTEGER x
  x = 1
  CALL bump(x)
  PRINT *, x
END
SUBROUTINE bump(a)
  INTEGER a
  a = a + 41
END
|}
      [ 42 ];
    check_output "by-value expression actuals do not"
      {|
PROGRAM p
  INTEGER x
  x = 1
  CALL bump(x + 0)
  PRINT *, x
END
SUBROUTINE bump(a)
  INTEGER a
  a = a + 41
END
|}
      [ 1 ];
    check_output "array element passed by reference"
      {|
PROGRAM p
  INTEGER v(3)
  v(2) = 10
  CALL bump(v(2))
  PRINT *, v(2)
END
SUBROUTINE bump(a)
  INTEGER a
  a = a + 1
END
|}
      [ 11 ];
    check_output "whole arrays share storage"
      {|
PROGRAM p
  INTEGER v(4), i
  DO i = 1, 4
    v(i) = 0
  ENDDO
  CALL fill(v)
  PRINT *, v(1), v(4)
END
SUBROUTINE fill(w)
  INTEGER w(4)
  w(1) = 7
  w(4) = 9
END
|}
      [ 7; 9 ];
    check_output "COMMON is program-wide storage"
      {|
PROGRAM p
  COMMON /blk/ g
  g = 5
  CALL touch
  PRINT *, g
END
SUBROUTINE touch
  COMMON /blk/ g
  g = g * 3
END
|}
      [ 15 ];
    check_output "DATA initialises globals"
      "PROGRAM p\nCOMMON /b/ g\nDATA g /123/\nPRINT *, g\nEND\n" [ 123 ];
    check_output "functions return values and see arguments"
      {|
PROGRAM p
  INTEGER r
  r = addup(20, 22)
  PRINT *, r
END
INTEGER FUNCTION addup(a, b)
  INTEGER a, b
  addup = a + b
END
|}
      [ 42 ];
    check_output "recursion works (subroutine form)"
      (* inside an INTEGER FUNCTION the function name denotes the result
         variable, so direct self-recursion is not expressible (as in
         FORTRAN); recursive subroutines are *)
      {|
PROGRAM p
  INTEGER r
  r = 1
  CALL factr(6, r)
  PRINT *, r
END
SUBROUTINE factr(n, acc)
  INTEGER n, acc, m
  IF (n .GT. 1) THEN
    acc = acc * n
    m = n - 1
    CALL factr(m, acc)
  ENDIF
END
|}
      [ 720 ];
    check_output "mutual recursion through functions"
      {|
PROGRAM p
  PRINT *, iseven(10), iseven(7)
END
INTEGER FUNCTION iseven(n)
  INTEGER n, m
  IF (n .EQ. 0) THEN
    iseven = 1
  ELSE
    m = n - 1
    iseven = isodd(m)
  ENDIF
END
INTEGER FUNCTION isodd(n)
  INTEGER n, m
  IF (n .EQ. 0) THEN
    isodd = 0
  ELSE
    m = n - 1
    isodd = iseven(m)
  ENDIF
END
|}
      [ 1; 0 ];
    check_output "short-circuit .AND. skips the right operand"
      {|
PROGRAM p
  COMMON /fx/ cnt
  INTEGER x
  cnt = 0
  x = 0
  IF (x .NE. 0 .AND. probe() .GT. 0) THEN
    PRINT *, 1
  ENDIF
  PRINT *, cnt
END
INTEGER FUNCTION probe()
  COMMON /fx/ cnt
  cnt = cnt + 1
  probe = 1
END
|}
      [ 0 ];
    check_output "logical IF"
      "PROGRAM p\nINTEGER x\nx = 3\nIF (x .GT. 2) x = x * 10\nPRINT *, x\nEND\n"
      [ 30 ];
    check_output "STOP halts mid-program"
      "PROGRAM p\nPRINT *, 1\nSTOP\nPRINT *, 2\nEND\n" [ 1 ];
    check_output "RETURN leaves a subroutine early"
      {|
PROGRAM p
  INTEGER x
  x = 0
  CALL early(x)
  PRINT *, x
END
SUBROUTINE early(a)
  INTEGER a
  a = 1
  RETURN
  a = 2
END
|}
      [ 1 ];
    Alcotest.test_case "READ consumes input" `Quick (fun () ->
        let r =
          run ~input:[ 10; 20 ]
            "PROGRAM p\nINTEGER a, b\nREAD *, a, b\nPRINT *, a + b\nEND\n"
        in
        Alcotest.(check (list int)) "sum" [ 30 ] r.Interp.output);
    Alcotest.test_case "division by zero faults" `Quick (fun () ->
        let r = run "PROGRAM p\nINTEGER x, y\ny = 0\nx = 1 / y\nPRINT *, x\nEND\n" in
        match r.Interp.status with
        | Interp.Fault _ -> Alcotest.(check (list int)) "no output" [] r.Interp.output
        | s -> Alcotest.failf "expected fault, got %a" Interp.pp_status s);
    check_fault "a WHILE condition faults at the WHILE"
      {|PROGRAM p
  INTEGER z
  z = 1
  WHILE (10 / z .GT. 0)
    PRINT *, z
    z = 0
  ENDWHILE
END
|}
      "<interp>:4:3: division by zero";
    check_fault "an expression faults at its line after a call returns"
      {|PROGRAM p
  INTEGER r, z
  z = 0
  r = f(z) + 10 / z
  PRINT *, r
END
INTEGER FUNCTION f(a)
  INTEGER a
  INTEGER t
  t = a
  f = t + 1
END
|}
      "<interp>:4:3: division by zero";
    Alcotest.test_case "subscript out of bounds faults" `Quick (fun () ->
        let r = run "PROGRAM p\nINTEGER v(3)\nv(4) = 1\nEND\n" in
        match r.Interp.status with
        | Interp.Fault _ -> ()
        | s -> Alcotest.failf "expected fault, got %a" Interp.pp_status s);
    Alcotest.test_case "undefined reads are seed-deterministic" `Quick
      (fun () ->
        let src = "PROGRAM p\nINTEGER x\nPRINT *, x\nEND\n" in
        let a = run ~seed:5 src and b = run ~seed:5 src and c = run ~seed:6 src in
        Alcotest.(check (list int)) "same seed same value" a.Interp.output b.Interp.output;
        if a.Interp.output = c.Interp.output then
          Alcotest.fail "different seeds should (almost surely) differ");
    Alcotest.test_case "entry trace records formals and globals" `Quick
      (fun () ->
        let r =
          run
            {|
PROGRAM p
  COMMON /b/ g
  g = 9
  CALL s(3)
END
SUBROUTINE s(a)
  COMMON /b/ g
  INTEGER a
  g = g + a
END
|}
        in
        let entries = List.map (fun e -> e.Interp.e_proc) r.Interp.trace in
        Alcotest.(check (list string)) "entries in order" [ "p"; "s" ] entries;
        let s_entry = List.nth r.Interp.trace 1 in
        Alcotest.(check (option (option int)))
          "formal a = 3" (Some (Some 3))
          (List.assoc_opt "a" s_entry.Interp.e_vals);
        Alcotest.(check (option (option int)))
          "global g = 9" (Some (Some 9))
          (List.assoc_opt "g" s_entry.Interp.e_vals));
  ]

let suites = [ ("interp", tests) ]
