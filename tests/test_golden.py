"""Golden CLI output: the exact stdout and exit code of fixed commands.

Each command runs in text, json and csv.  The literals below are the
output the CLI gave when they were recorded; any change to a number, a
key, a separator, an indent or a line shows up as a failing case.
`bench` reports timings, so only its shape is compared.
"""
import contextlib
import io
import json
import re

import pytest

from oddseq import cli

GOLDEN = [
    (('pi', '1000', '--format', 'text'), 0,
     'x = 1000\n'
     'strategy = oracle\n'
     'n = 498\n'
     'M_n = 499\n'
     'W_n = 332\n'
     'm = 1\n'
     'pi = 168\n'),
    (('pi', '1000', '--format', 'json'), 0,
     '{\n'
     '  "x": 1000,\n'
     '  "strategy": "oracle",\n'
     '  "n": 498,\n'
     '  "m_n": 499,\n'
     '  "w_n": 332,\n'
     '  "m": 1,\n'
     '  "pi": 168,\n'
     '  "class_counts": {}\n'
     '}\n'),
    (('pi', '1000', '--format', 'csv'), 0,
     'x,strategy,n,m_n,w_n,m,pi\n'
     '1000,oracle,498,499,332,1,168\n'),
    (('pi', '1000', '--strategy', 'formula', '--format', 'text'), 0,
     'x = 1000\n'
     'strategy = formula\n'
     'n = 498\n'
     'M_n = 499\n'
     'W_n = 290\n'
     'm = 1\n'
     'pi = 210\n'
     'class counts:\n'
     '  kl = 563\n'
     '  kkl = 82\n'
     '  kpow:3 = 4\n'
     '  kjl:3 = 20\n'
     '  kpow:4 = 2\n'
     '  kjl:4 = 5\n'
     '  kpow:5 = 1\n'
     '  kjl:5 = 1\n'
     '  kpow:6 = 1\n'
     '  two_prime_l = 89\n'
     '  multi:3 = 42\n'),
    (('pi', '1000', '--strategy', 'formula', '--format', 'json'), 0,
     '{\n'
     '  "x": 1000,\n'
     '  "strategy": "formula",\n'
     '  "n": 498,\n'
     '  "m_n": 499,\n'
     '  "w_n": 290,\n'
     '  "m": 1,\n'
     '  "pi": 210,\n'
     '  "class_counts": {\n'
     '    "kl": 563,\n'
     '    "kkl": 82,\n'
     '    "kpow:3": 4,\n'
     '    "kjl:3": 20,\n'
     '    "kpow:4": 2,\n'
     '    "kjl:4": 5,\n'
     '    "kpow:5": 1,\n'
     '    "kjl:5": 1,\n'
     '    "kpow:6": 1,\n'
     '    "two_prime_l": 89,\n'
     '    "multi:3": 42\n'
     '  }\n'
     '}\n'),
    (('pi', '1000', '--strategy', 'formula', '--format', 'csv'), 0,
     'x,strategy,n,m_n,w_n,m,pi\n'
     '1000,formula,498,499,290,1,210\n'),
    (('pi', '2', '--strategy', 'formula', '--format', 'text'), 0,
     'x = 2\n'
     'strategy = formula\n'
     'n = None\n'
     'M_n = 0\n'
     'W_n = 0\n'
     'm = 1\n'
     'pi = 1\n'),
    (('pi', '2', '--strategy', 'formula', '--format', 'json'), 0,
     '{\n'
     '  "x": 2,\n'
     '  "strategy": "formula",\n'
     '  "n": null,\n'
     '  "m_n": 0,\n'
     '  "w_n": 0,\n'
     '  "m": 1,\n'
     '  "pi": 1,\n'
     '  "class_counts": {}\n'
     '}\n'),
    (('pi', '2', '--strategy', 'formula', '--format', 'csv'), 0,
     'x,strategy,n,m_n,w_n,m,pi\n'
     '2,formula,,0,0,1,1\n'),
    (('count', 'p:5', '--at-n', '100', '--format', 'text'), 0,
     '12\n'),
    (('count', 'p:5', '--at-n', '100', '--format', 'json'), 0,
     '{\n'
     '  "class": "p:5",\n'
     '  "variant": "exact",\n'
     '  "n": 100,\n'
     '  "count": 12\n'
     '}\n'),
    (('count', 'p:5', '--at-n', '100', '--format', 'csv'), 0,
     'class,variant,n,count\n'
     'p:5,exact,100,12\n'),
    (('count', 'p:5', '--at-n', '100', '--variant', 'classic', '--format', 'text'), 0,
     '6\n'),
    (('count', 'p:5', '--at-n', '100', '--variant', 'classic', '--format', 'json'), 0,
     '{\n'
     '  "class": "p:5",\n'
     '  "variant": "classic",\n'
     '  "n": 100,\n'
     '  "count": 6\n'
     '}\n'),
    (('count', 'p:5', '--at-n', '100', '--variant', 'classic', '--format', 'csv'), 0,
     'class,variant,n,count\n'
     'p:5,classic,100,6\n'),
    (('count', 'p:5', '--at-n', '100', '--variant', 'both', '--format', 'text'), 0,
     'exact = 12\n'
     'classic = 6\n'
     'delta = -6\n'),
    (('count', 'p:5', '--at-n', '100', '--variant', 'both', '--format', 'json'), 0,
     '{\n'
     '  "class": "p:5",\n'
     '  "n": 100,\n'
     '  "exact": 12,\n'
     '  "classic": 6,\n'
     '  "delta": -6\n'
     '}\n'),
    (('count', 'p:5', '--at-n', '100', '--variant', 'both', '--format', 'csv'), 0,
     'class,n,exact,classic,delta\n'
     'p:5,100,12,6,-6\n'),
    (('count', 'kkl', '--at-x', '2000', '--format', 'text'), 0,
     '176\n'),
    (('count', 'kkl', '--at-x', '2000', '--format', 'json'), 0,
     '{\n'
     '  "class": "kkl",\n'
     '  "variant": "exact",\n'
     '  "n": 998,\n'
     '  "count": 176\n'
     '}\n'),
    (('count', 'kkl', '--at-x', '2000', '--format', 'csv'), 0,
     'class,variant,n,count\n'
     'kkl,exact,998,176\n'),
    (('count', 'kkl', '--at-x', '2000', '--variant', 'classic', '--format', 'text'), 0,
     '201\n'),
    (('count', 'kkl', '--at-x', '2000', '--variant', 'classic', '--format', 'json'), 0,
     '{\n'
     '  "class": "kkl",\n'
     '  "variant": "classic",\n'
     '  "n": 998,\n'
     '  "count": 201\n'
     '}\n'),
    (('count', 'kkl', '--at-x', '2000', '--variant', 'classic', '--format', 'csv'), 0,
     'class,variant,n,count\n'
     'kkl,classic,998,201\n'),
    (('count', 'kkl', '--at-x', '2000', '--variant', 'both', '--format', 'text'), 0,
     'exact = 176\n'
     'classic = 201\n'
     'delta = 25\n'),
    (('count', 'kkl', '--at-x', '2000', '--variant', 'both', '--format', 'json'), 0,
     '{\n'
     '  "class": "kkl",\n'
     '  "n": 998,\n'
     '  "exact": 176,\n'
     '  "classic": 201,\n'
     '  "delta": 25\n'
     '}\n'),
    (('count', 'kkl', '--at-x', '2000', '--variant', 'both', '--format', 'csv'), 0,
     'class,n,exact,classic,delta\n'
     'kkl,998,176,201,25\n'),
    (('count', '3', '--at-x', '99.5', '--format', 'text'), 0,
     '16\n'),
    (('count', '3', '--at-x', '99.5', '--format', 'json'), 0,
     '{\n'
     '  "class": "3",\n'
     '  "variant": "exact",\n'
     '  "n": 48,\n'
     '  "count": 16\n'
     '}\n'),
    (('count', '3', '--at-x', '99.5', '--format', 'csv'), 0,
     'class,variant,n,count\n'
     '3,exact,48,16\n'),
    (('count', 'kl', '--at-x', '1e3', '--format', 'text'), 0,
     '563\n'),
    (('count', 'kl', '--at-x', '1e3', '--format', 'json'), 0,
     '{\n'
     '  "class": "kl",\n'
     '  "variant": "exact",\n'
     '  "n": 498,\n'
     '  "count": 563\n'
     '}\n'),
    (('count', 'kl', '--at-x', '1e3', '--format', 'csv'), 0,
     'class,variant,n,count\n'
     'kl,exact,498,563\n'),
    (('count', 'kpow:3', '--at-n', '500', '--format', 'text'), 0,
     '4\n'),
    (('count', 'kpow:3', '--at-n', '500', '--format', 'json'), 0,
     '{\n'
     '  "class": "kpow:3",\n'
     '  "variant": "exact",\n'
     '  "n": 500,\n'
     '  "count": 4\n'
     '}\n'),
    (('count', 'kpow:3', '--at-n', '500', '--format', 'csv'), 0,
     'class,variant,n,count\n'
     'kpow:3,exact,500,4\n'),
    (('count', 'kl', '--at-n', '5', '--variant', 'classic', '--format', 'text'), 2,
     ""),
    (('count', 'kl', '--at-n', '5', '--variant', 'classic', '--format', 'json'), 2,
     ""),
    (('count', 'kl', '--at-n', '5', '--variant', 'classic', '--format', 'csv'), 2,
     ""),
    (('gen', '12', '--format', 'text'), 0,
     '2 3 5 7 11 13 17 19 23 29 31 37\n'),
    (('gen', '12', '--format', 'json'), 0,
     '{"count": 12, "include_two": true, "primes": [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37]}\n'),
    (('gen', '12', '--format', 'csv'), 0,
     'index,prime\n'
     '1,2\n'
     '2,3\n'
     '3,5\n'
     '4,7\n'
     '5,11\n'
     '6,13\n'
     '7,17\n'
     '8,19\n'
     '9,23\n'
     '10,29\n'
     '11,31\n'
     '12,37\n'),
    (('gen', '12', '--no-include-two', '--format', 'text'), 0,
     '3 5 7 11 13 17 19 23 29 31 37 41\n'),
    (('gen', '12', '--no-include-two', '--format', 'json'), 0,
     '{"count": 12, "include_two": false, "primes": [3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41]}\n'),
    (('gen', '12', '--no-include-two', '--format', 'csv'), 0,
     'index,prime\n'
     '1,3\n'
     '2,5\n'
     '3,7\n'
     '4,11\n'
     '5,13\n'
     '6,17\n'
     '7,19\n'
     '8,23\n'
     '9,29\n'
     '10,31\n'
     '11,37\n'
     '12,41\n'),
    (('tseries', '3,5', '--limit', '60', '--format', 'text'), 0,
     '7 11 13 17 19 23 29 31 37 41 43 47 49 53 59\n'),
    (('tseries', '3,5', '--limit', '60', '--format', 'json'), 0,
     '{"divisors": [3, 5], "period": 30, "offsets": [1, 7, 11, 13, 17, 19, 23, 29], "seeds": [7, 11, 13, 17, 19, 23, 29, 31], "limit": 60, "elements": [7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 49, 53, 59]}\n'),
    (('tseries', '3,5', '--limit', '60', '--format', 'csv'), 0,
     'index,element\n'
     '0,7\n'
     '1,11\n'
     '2,13\n'
     '3,17\n'
     '4,19\n'
     '5,23\n'
     '6,29\n'
     '7,31\n'
     '8,37\n'
     '9,41\n'
     '10,43\n'
     '11,47\n'
     '12,49\n'
     '13,53\n'
     '14,59\n'),
    (('verify', '--max-n', '60', '--variant', 'exact', '--max-rows', '0', '--format', 'text'), 0,
     'ok   3[exact]         checked n <= 60  mismatches 0\n'
     'ok   p:5[exact]       checked n <= 60  mismatches 0\n'
     'ok   p:7[exact]       checked n <= 60  mismatches 0\n'
     'ok   p:11[exact]      checked n <= 60  mismatches 0\n'
     'ok   kl[exact]        checked n <= 60  mismatches 0\n'
     'ok   kkl[exact]       checked n <= 60  mismatches 0\n'
     'ok   kpow:2[exact]    checked n <= 60  mismatches 0\n'
     'ok   kpow:3[exact]    checked n <= 60  mismatches 0\n'
     'WARN w[formula]       checked n <= 60  mismatches 10  first at n = 51\n'
     'result: OK\n'),
    (('verify', '--max-n', '60', '--variant', 'exact', '--max-rows', '0', '--format', 'json'), 0,
     '{\n'
     '  "max_n": 60,\n'
     '  "ok": true,\n'
     '  "summaries": [\n'
     '    {\n'
     '      "class": "3[exact]",\n'
     '      "checked": 61,\n'
     '      "mismatches": 0,\n'
     '      "first_mismatch": null,\n'
     '      "informational": false\n'
     '    },\n'
     '    {\n'
     '      "class": "p:5[exact]",\n'
     '      "checked": 61,\n'
     '      "mismatches": 0,\n'
     '      "first_mismatch": null,\n'
     '      "informational": false\n'
     '    },\n'
     '    {\n'
     '      "class": "p:7[exact]",\n'
     '      "checked": 61,\n'
     '      "mismatches": 0,\n'
     '      "first_mismatch": null,\n'
     '      "informational": false\n'
     '    },\n'
     '    {\n'
     '      "class": "p:11[exact]",\n'
     '      "checked": 61,\n'
     '      "mismatches": 0,\n'
     '      "first_mismatch": null,\n'
     '      "informational": false\n'
     '    },\n'
     '    {\n'
     '      "class": "kl[exact]",\n'
     '      "checked": 61,\n'
     '      "mismatches": 0,\n'
     '      "first_mismatch": null,\n'
     '      "informational": false\n'
     '    },\n'
     '    {\n'
     '      "class": "kkl[exact]",\n'
     '      "checked": 61,\n'
     '      "mismatches": 0,\n'
     '      "first_mismatch": null,\n'
     '      "informational": false\n'
     '    },\n'
     '    {\n'
     '      "class": "kpow:2[exact]",\n'
     '      "checked": 61,\n'
     '      "mismatches": 0,\n'
     '      "first_mismatch": null,\n'
     '      "informational": false\n'
     '    },\n'
     '    {\n'
     '      "class": "kpow:3[exact]",\n'
     '      "checked": 61,\n'
     '      "mismatches": 0,\n'
     '      "first_mismatch": null,\n'
     '      "informational": false\n'
     '    },\n'
     '    {\n'
     '      "class": "w[formula]",\n'
     '      "checked": 61,\n'
     '      "mismatches": 10,\n'
     '      "first_mismatch": 51,\n'
     '      "informational": true\n'
     '    }\n'
     '  ],\n'
     '  "rows": []\n'
     '}\n'),
    (('verify', '--max-n', '60', '--variant', 'exact', '--max-rows', '0', '--format', 'csv'), 0,
     'quantity,formula,oracle,delta,n\n'),
    (('verify', '--max-n', '60', '--variant', 'exact', '--max-rows', '3', '--format', 'text'), 0,
     'ok   3[exact]         checked n <= 60  mismatches 0\n'
     'ok   p:5[exact]       checked n <= 60  mismatches 0\n'
     'ok   p:7[exact]       checked n <= 60  mismatches 0\n'
     'ok   p:11[exact]      checked n <= 60  mismatches 0\n'
     'ok   kl[exact]        checked n <= 60  mismatches 0\n'
     'ok   kkl[exact]       checked n <= 60  mismatches 0\n'
     'ok   kpow:2[exact]    checked n <= 60  mismatches 0\n'
     'ok   kpow:3[exact]    checked n <= 60  mismatches 0\n'
     'WARN w[formula]       checked n <= 60  mismatches 10  first at n = 51\n'
     '  w[formula] n=51: formula 25 oracle 26 delta -1\n'
     '  w[formula] n=52: formula 25 oracle 26 delta -1\n'
     '  w[formula] n=53: formula 25 oracle 26 delta -1\n'
     'result: OK\n'),
    (('verify', '--max-n', '60', '--variant', 'exact', '--max-rows', '3', '--format', 'json'), 0,
     '{\n'
     '  "max_n": 60,\n'
     '  "ok": true,\n'
     '  "summaries": [\n'
     '    {\n'
     '      "class": "3[exact]",\n'
     '      "checked": 61,\n'
     '      "mismatches": 0,\n'
     '      "first_mismatch": null,\n'
     '      "informational": false\n'
     '    },\n'
     '    {\n'
     '      "class": "p:5[exact]",\n'
     '      "checked": 61,\n'
     '      "mismatches": 0,\n'
     '      "first_mismatch": null,\n'
     '      "informational": false\n'
     '    },\n'
     '    {\n'
     '      "class": "p:7[exact]",\n'
     '      "checked": 61,\n'
     '      "mismatches": 0,\n'
     '      "first_mismatch": null,\n'
     '      "informational": false\n'
     '    },\n'
     '    {\n'
     '      "class": "p:11[exact]",\n'
     '      "checked": 61,\n'
     '      "mismatches": 0,\n'
     '      "first_mismatch": null,\n'
     '      "informational": false\n'
     '    },\n'
     '    {\n'
     '      "class": "kl[exact]",\n'
     '      "checked": 61,\n'
     '      "mismatches": 0,\n'
     '      "first_mismatch": null,\n'
     '      "informational": false\n'
     '    },\n'
     '    {\n'
     '      "class": "kkl[exact]",\n'
     '      "checked": 61,\n'
     '      "mismatches": 0,\n'
     '      "first_mismatch": null,\n'
     '      "informational": false\n'
     '    },\n'
     '    {\n'
     '      "class": "kpow:2[exact]",\n'
     '      "checked": 61,\n'
     '      "mismatches": 0,\n'
     '      "first_mismatch": null,\n'
     '      "informational": false\n'
     '    },\n'
     '    {\n'
     '      "class": "kpow:3[exact]",\n'
     '      "checked": 61,\n'
     '      "mismatches": 0,\n'
     '      "first_mismatch": null,\n'
     '      "informational": false\n'
     '    },\n'
     '    {\n'
     '      "class": "w[formula]",\n'
     '      "checked": 61,\n'
     '      "mismatches": 10,\n'
     '      "first_mismatch": 51,\n'
     '      "informational": true\n'
     '    }\n'
     '  ],\n'
     '  "rows": [\n'
     '    {\n'
     '      "quantity": "w[formula]",\n'
     '      "formula": 25,\n'
     '      "oracle": 26,\n'
     '      "delta": -1,\n'
     '      "n": 51\n'
     '    },\n'
     '    {\n'
     '      "quantity": "w[formula]",\n'
     '      "formula": 25,\n'
     '      "oracle": 26,\n'
     '      "delta": -1,\n'
     '      "n": 52\n'
     '    },\n'
     '    {\n'
     '      "quantity": "w[formula]",\n'
     '      "formula": 25,\n'
     '      "oracle": 26,\n'
     '      "delta": -1,\n'
     '      "n": 53\n'
     '    }\n'
     '  ]\n'
     '}\n'),
    (('verify', '--max-n', '60', '--variant', 'exact', '--max-rows', '3', '--format', 'csv'), 0,
     'quantity,formula,oracle,delta,n\n'
     'w[formula],25,26,-1,51\n'
     'w[formula],25,26,-1,52\n'
     'w[formula],25,26,-1,53\n'),
    (('verify', '--max-n', '60', '--variant', 'classic', '--max-rows', '0', '--format', 'text'), 0,
     'WARN p:5[classic]     checked n <= 60  mismatches 50  first at n = 11\n'
     'ok   p:7[classic]     checked n <= 60  mismatches 0\n'
     'ok   p:11[classic]    checked n <= 60  mismatches 0\n'
     'WARN kkl[classic]     checked n <= 60  mismatches 25  first at n = 36\n'
     'result: OK\n'),
    (('verify', '--max-n', '60', '--variant', 'classic', '--max-rows', '0', '--format', 'json'), 0,
     '{\n'
     '  "max_n": 60,\n'
     '  "ok": true,\n'
     '  "summaries": [\n'
     '    {\n'
     '      "class": "p:5[classic]",\n'
     '      "checked": 61,\n'
     '      "mismatches": 50,\n'
     '      "first_mismatch": 11,\n'
     '      "informational": true\n'
     '    },\n'
     '    {\n'
     '      "class": "p:7[classic]",\n'
     '      "checked": 61,\n'
     '      "mismatches": 0,\n'
     '      "first_mismatch": null,\n'
     '      "informational": true\n'
     '    },\n'
     '    {\n'
     '      "class": "p:11[classic]",\n'
     '      "checked": 61,\n'
     '      "mismatches": 0,\n'
     '      "first_mismatch": null,\n'
     '      "informational": true\n'
     '    },\n'
     '    {\n'
     '      "class": "kkl[classic]",\n'
     '      "checked": 61,\n'
     '      "mismatches": 25,\n'
     '      "first_mismatch": 36,\n'
     '      "informational": true\n'
     '    }\n'
     '  ],\n'
     '  "rows": []\n'
     '}\n'),
    (('verify', '--max-n', '60', '--variant', 'classic', '--max-rows', '0', '--format', 'csv'), 0,
     'quantity,formula,oracle,delta,n\n'),
    (('verify', '--max-n', '60', '--variant', 'classic', '--max-rows', '3', '--format', 'text'), 0,
     'WARN p:5[classic]     checked n <= 60  mismatches 50  first at n = 11\n'
     'ok   p:7[classic]     checked n <= 60  mismatches 0\n'
     'ok   p:11[classic]    checked n <= 60  mismatches 0\n'
     'WARN kkl[classic]     checked n <= 60  mismatches 25  first at n = 36\n'
     '  p:5[classic] n=11: formula 0 oracle 1 delta -1\n'
     '  p:5[classic] n=12: formula 0 oracle 1 delta -1\n'
     '  p:5[classic] n=13: formula 0 oracle 1 delta -1\n'
     'result: OK\n'),
    (('verify', '--max-n', '60', '--variant', 'classic', '--max-rows', '3', '--format', 'json'), 0,
     '{\n'
     '  "max_n": 60,\n'
     '  "ok": true,\n'
     '  "summaries": [\n'
     '    {\n'
     '      "class": "p:5[classic]",\n'
     '      "checked": 61,\n'
     '      "mismatches": 50,\n'
     '      "first_mismatch": 11,\n'
     '      "informational": true\n'
     '    },\n'
     '    {\n'
     '      "class": "p:7[classic]",\n'
     '      "checked": 61,\n'
     '      "mismatches": 0,\n'
     '      "first_mismatch": null,\n'
     '      "informational": true\n'
     '    },\n'
     '    {\n'
     '      "class": "p:11[classic]",\n'
     '      "checked": 61,\n'
     '      "mismatches": 0,\n'
     '      "first_mismatch": null,\n'
     '      "informational": true\n'
     '    },\n'
     '    {\n'
     '      "class": "kkl[classic]",\n'
     '      "checked": 61,\n'
     '      "mismatches": 25,\n'
     '      "first_mismatch": 36,\n'
     '      "informational": true\n'
     '    }\n'
     '  ],\n'
     '  "rows": [\n'
     '    {\n'
     '      "quantity": "p:5[classic]",\n'
     '      "formula": 0,\n'
     '      "oracle": 1,\n'
     '      "delta": -1,\n'
     '      "n": 11\n'
     '    },\n'
     '    {\n'
     '      "quantity": "p:5[classic]",\n'
     '      "formula": 0,\n'
     '      "oracle": 1,\n'
     '      "delta": -1,\n'
     '      "n": 12\n'
     '    },\n'
     '    {\n'
     '      "quantity": "p:5[classic]",\n'
     '      "formula": 0,\n'
     '      "oracle": 1,\n'
     '      "delta": -1,\n'
     '      "n": 13\n'
     '    },\n'
     '    {\n'
     '      "quantity": "kkl[classic]",\n'
     '      "formula": 4,\n'
     '      "oracle": 3,\n'
     '      "delta": 1,\n'
     '      "n": 36\n'
     '    },\n'
     '    {\n'
     '      "quantity": "kkl[classic]",\n'
     '      "formula": 4,\n'
     '      "oracle": 3,\n'
     '      "delta": 1,\n'
     '      "n": 37\n'
     '    },\n'
     '    {\n'
     '      "quantity": "kkl[classic]",\n'
     '      "formula": 4,\n'
     '      "oracle": 3,\n'
     '      "delta": 1,\n'
     '      "n": 38\n'
     '    }\n'
     '  ]\n'
     '}\n'),
    (('verify', '--max-n', '60', '--variant', 'classic', '--max-rows', '3', '--format', 'csv'), 0,
     'quantity,formula,oracle,delta,n\n'
     'p:5[classic],0,1,-1,11\n'
     'p:5[classic],0,1,-1,12\n'
     'p:5[classic],0,1,-1,13\n'
     'kkl[classic],4,3,1,36\n'
     'kkl[classic],4,3,1,37\n'
     'kkl[classic],4,3,1,38\n'),
    (('verify', '--max-n', '60', '--variant', 'both', '--max-rows', '0', '--format', 'text'), 0,
     'ok   3[exact]         checked n <= 60  mismatches 0\n'
     'ok   p:5[exact]       checked n <= 60  mismatches 0\n'
     'WARN p:5[classic]     checked n <= 60  mismatches 50  first at n = 11\n'
     'ok   p:7[exact]       checked n <= 60  mismatches 0\n'
     'ok   p:7[classic]     checked n <= 60  mismatches 0\n'
     'ok   p:11[exact]      checked n <= 60  mismatches 0\n'
     'ok   p:11[classic]    checked n <= 60  mismatches 0\n'
     'ok   kl[exact]        checked n <= 60  mismatches 0\n'
     'ok   kkl[exact]       checked n <= 60  mismatches 0\n'
     'WARN kkl[classic]     checked n <= 60  mismatches 25  first at n = 36\n'
     'ok   kpow:2[exact]    checked n <= 60  mismatches 0\n'
     'ok   kpow:3[exact]    checked n <= 60  mismatches 0\n'
     'WARN w[formula]       checked n <= 60  mismatches 10  first at n = 51\n'
     'result: OK\n'),
    (('verify', '--max-n', '60', '--variant', 'both', '--max-rows', '0', '--format', 'json'), 0,
     '{\n'
     '  "max_n": 60,\n'
     '  "ok": true,\n'
     '  "summaries": [\n'
     '    {\n'
     '      "class": "3[exact]",\n'
     '      "checked": 61,\n'
     '      "mismatches": 0,\n'
     '      "first_mismatch": null,\n'
     '      "informational": false\n'
     '    },\n'
     '    {\n'
     '      "class": "p:5[exact]",\n'
     '      "checked": 61,\n'
     '      "mismatches": 0,\n'
     '      "first_mismatch": null,\n'
     '      "informational": false\n'
     '    },\n'
     '    {\n'
     '      "class": "p:5[classic]",\n'
     '      "checked": 61,\n'
     '      "mismatches": 50,\n'
     '      "first_mismatch": 11,\n'
     '      "informational": true\n'
     '    },\n'
     '    {\n'
     '      "class": "p:7[exact]",\n'
     '      "checked": 61,\n'
     '      "mismatches": 0,\n'
     '      "first_mismatch": null,\n'
     '      "informational": false\n'
     '    },\n'
     '    {\n'
     '      "class": "p:7[classic]",\n'
     '      "checked": 61,\n'
     '      "mismatches": 0,\n'
     '      "first_mismatch": null,\n'
     '      "informational": true\n'
     '    },\n'
     '    {\n'
     '      "class": "p:11[exact]",\n'
     '      "checked": 61,\n'
     '      "mismatches": 0,\n'
     '      "first_mismatch": null,\n'
     '      "informational": false\n'
     '    },\n'
     '    {\n'
     '      "class": "p:11[classic]",\n'
     '      "checked": 61,\n'
     '      "mismatches": 0,\n'
     '      "first_mismatch": null,\n'
     '      "informational": true\n'
     '    },\n'
     '    {\n'
     '      "class": "kl[exact]",\n'
     '      "checked": 61,\n'
     '      "mismatches": 0,\n'
     '      "first_mismatch": null,\n'
     '      "informational": false\n'
     '    },\n'
     '    {\n'
     '      "class": "kkl[exact]",\n'
     '      "checked": 61,\n'
     '      "mismatches": 0,\n'
     '      "first_mismatch": null,\n'
     '      "informational": false\n'
     '    },\n'
     '    {\n'
     '      "class": "kkl[classic]",\n'
     '      "checked": 61,\n'
     '      "mismatches": 25,\n'
     '      "first_mismatch": 36,\n'
     '      "informational": true\n'
     '    },\n'
     '    {\n'
     '      "class": "kpow:2[exact]",\n'
     '      "checked": 61,\n'
     '      "mismatches": 0,\n'
     '      "first_mismatch": null,\n'
     '      "informational": false\n'
     '    },\n'
     '    {\n'
     '      "class": "kpow:3[exact]",\n'
     '      "checked": 61,\n'
     '      "mismatches": 0,\n'
     '      "first_mismatch": null,\n'
     '      "informational": false\n'
     '    },\n'
     '    {\n'
     '      "class": "w[formula]",\n'
     '      "checked": 61,\n'
     '      "mismatches": 10,\n'
     '      "first_mismatch": 51,\n'
     '      "informational": true\n'
     '    }\n'
     '  ],\n'
     '  "rows": []\n'
     '}\n'),
    (('verify', '--max-n', '60', '--variant', 'both', '--max-rows', '0', '--format', 'csv'), 0,
     'quantity,formula,oracle,delta,n\n'),
    (('verify', '--max-n', '60', '--variant', 'both', '--max-rows', '3', '--format', 'text'), 0,
     'ok   3[exact]         checked n <= 60  mismatches 0\n'
     'ok   p:5[exact]       checked n <= 60  mismatches 0\n'
     'WARN p:5[classic]     checked n <= 60  mismatches 50  first at n = 11\n'
     'ok   p:7[exact]       checked n <= 60  mismatches 0\n'
     'ok   p:7[classic]     checked n <= 60  mismatches 0\n'
     'ok   p:11[exact]      checked n <= 60  mismatches 0\n'
     'ok   p:11[classic]    checked n <= 60  mismatches 0\n'
     'ok   kl[exact]        checked n <= 60  mismatches 0\n'
     'ok   kkl[exact]       checked n <= 60  mismatches 0\n'
     'WARN kkl[classic]     checked n <= 60  mismatches 25  first at n = 36\n'
     'ok   kpow:2[exact]    checked n <= 60  mismatches 0\n'
     'ok   kpow:3[exact]    checked n <= 60  mismatches 0\n'
     'WARN w[formula]       checked n <= 60  mismatches 10  first at n = 51\n'
     '  p:5[classic] n=11: formula 0 oracle 1 delta -1\n'
     '  p:5[classic] n=12: formula 0 oracle 1 delta -1\n'
     '  p:5[classic] n=13: formula 0 oracle 1 delta -1\n'
     'result: OK\n'),
    (('verify', '--max-n', '60', '--variant', 'both', '--max-rows', '3', '--format', 'json'), 0,
     '{\n'
     '  "max_n": 60,\n'
     '  "ok": true,\n'
     '  "summaries": [\n'
     '    {\n'
     '      "class": "3[exact]",\n'
     '      "checked": 61,\n'
     '      "mismatches": 0,\n'
     '      "first_mismatch": null,\n'
     '      "informational": false\n'
     '    },\n'
     '    {\n'
     '      "class": "p:5[exact]",\n'
     '      "checked": 61,\n'
     '      "mismatches": 0,\n'
     '      "first_mismatch": null,\n'
     '      "informational": false\n'
     '    },\n'
     '    {\n'
     '      "class": "p:5[classic]",\n'
     '      "checked": 61,\n'
     '      "mismatches": 50,\n'
     '      "first_mismatch": 11,\n'
     '      "informational": true\n'
     '    },\n'
     '    {\n'
     '      "class": "p:7[exact]",\n'
     '      "checked": 61,\n'
     '      "mismatches": 0,\n'
     '      "first_mismatch": null,\n'
     '      "informational": false\n'
     '    },\n'
     '    {\n'
     '      "class": "p:7[classic]",\n'
     '      "checked": 61,\n'
     '      "mismatches": 0,\n'
     '      "first_mismatch": null,\n'
     '      "informational": true\n'
     '    },\n'
     '    {\n'
     '      "class": "p:11[exact]",\n'
     '      "checked": 61,\n'
     '      "mismatches": 0,\n'
     '      "first_mismatch": null,\n'
     '      "informational": false\n'
     '    },\n'
     '    {\n'
     '      "class": "p:11[classic]",\n'
     '      "checked": 61,\n'
     '      "mismatches": 0,\n'
     '      "first_mismatch": null,\n'
     '      "informational": true\n'
     '    },\n'
     '    {\n'
     '      "class": "kl[exact]",\n'
     '      "checked": 61,\n'
     '      "mismatches": 0,\n'
     '      "first_mismatch": null,\n'
     '      "informational": false\n'
     '    },\n'
     '    {\n'
     '      "class": "kkl[exact]",\n'
     '      "checked": 61,\n'
     '      "mismatches": 0,\n'
     '      "first_mismatch": null,\n'
     '      "informational": false\n'
     '    },\n'
     '    {\n'
     '      "class": "kkl[classic]",\n'
     '      "checked": 61,\n'
     '      "mismatches": 25,\n'
     '      "first_mismatch": 36,\n'
     '      "informational": true\n'
     '    },\n'
     '    {\n'
     '      "class": "kpow:2[exact]",\n'
     '      "checked": 61,\n'
     '      "mismatches": 0,\n'
     '      "first_mismatch": null,\n'
     '      "informational": false\n'
     '    },\n'
     '    {\n'
     '      "class": "kpow:3[exact]",\n'
     '      "checked": 61,\n'
     '      "mismatches": 0,\n'
     '      "first_mismatch": null,\n'
     '      "informational": false\n'
     '    },\n'
     '    {\n'
     '      "class": "w[formula]",\n'
     '      "checked": 61,\n'
     '      "mismatches": 10,\n'
     '      "first_mismatch": 51,\n'
     '      "informational": true\n'
     '    }\n'
     '  ],\n'
     '  "rows": [\n'
     '    {\n'
     '      "quantity": "p:5[classic]",\n'
     '      "formula": 0,\n'
     '      "oracle": 1,\n'
     '      "delta": -1,\n'
     '      "n": 11\n'
     '    },\n'
     '    {\n'
     '      "quantity": "p:5[classic]",\n'
     '      "formula": 0,\n'
     '      "oracle": 1,\n'
     '      "delta": -1,\n'
     '      "n": 12\n'
     '    },\n'
     '    {\n'
     '      "quantity": "p:5[classic]",\n'
     '      "formula": 0,\n'
     '      "oracle": 1,\n'
     '      "delta": -1,\n'
     '      "n": 13\n'
     '    },\n'
     '    {\n'
     '      "quantity": "kkl[classic]",\n'
     '      "formula": 4,\n'
     '      "oracle": 3,\n'
     '      "delta": 1,\n'
     '      "n": 36\n'
     '    },\n'
     '    {\n'
     '      "quantity": "kkl[classic]",\n'
     '      "formula": 4,\n'
     '      "oracle": 3,\n'
     '      "delta": 1,\n'
     '      "n": 37\n'
     '    },\n'
     '    {\n'
     '      "quantity": "kkl[classic]",\n'
     '      "formula": 4,\n'
     '      "oracle": 3,\n'
     '      "delta": 1,\n'
     '      "n": 38\n'
     '    },\n'
     '    {\n'
     '      "quantity": "w[formula]",\n'
     '      "formula": 25,\n'
     '      "oracle": 26,\n'
     '      "delta": -1,\n'
     '      "n": 51\n'
     '    },\n'
     '    {\n'
     '      "quantity": "w[formula]",\n'
     '      "formula": 25,\n'
     '      "oracle": 26,\n'
     '      "delta": -1,\n'
     '      "n": 52\n'
     '    },\n'
     '    {\n'
     '      "quantity": "w[formula]",\n'
     '      "formula": 25,\n'
     '      "oracle": 26,\n'
     '      "delta": -1,\n'
     '      "n": 53\n'
     '    }\n'
     '  ]\n'
     '}\n'),
    (('verify', '--max-n', '60', '--variant', 'both', '--max-rows', '3', '--format', 'csv'), 0,
     'quantity,formula,oracle,delta,n\n'
     'p:5[classic],0,1,-1,11\n'
     'p:5[classic],0,1,-1,12\n'
     'p:5[classic],0,1,-1,13\n'
     'kkl[classic],4,3,1,36\n'
     'kkl[classic],4,3,1,37\n'
     'kkl[classic],4,3,1,38\n'
     'w[formula],25,26,-1,51\n'
     'w[formula],25,26,-1,52\n'
     'w[formula],25,26,-1,53\n'),
    (('verify', '--max-n', '200', '--classes', 'p:13,kpow:4,3', '--max-rows', '3', '--format', 'text'), 0,
     'ok   p:13[exact]      checked n <= 200  mismatches 0\n'
     'ok   kpow:4[exact]    checked n <= 200  mismatches 0\n'
     'ok   3[exact]         checked n <= 200  mismatches 0\n'
     'result: OK\n'),
    (('verify', '--max-n', '200', '--classes', 'p:13,kpow:4,3', '--max-rows', '3', '--format', 'json'), 0,
     '{\n'
     '  "max_n": 200,\n'
     '  "ok": true,\n'
     '  "summaries": [\n'
     '    {\n'
     '      "class": "p:13[exact]",\n'
     '      "checked": 201,\n'
     '      "mismatches": 0,\n'
     '      "first_mismatch": null,\n'
     '      "informational": false\n'
     '    },\n'
     '    {\n'
     '      "class": "kpow:4[exact]",\n'
     '      "checked": 201,\n'
     '      "mismatches": 0,\n'
     '      "first_mismatch": null,\n'
     '      "informational": false\n'
     '    },\n'
     '    {\n'
     '      "class": "3[exact]",\n'
     '      "checked": 201,\n'
     '      "mismatches": 0,\n'
     '      "first_mismatch": null,\n'
     '      "informational": false\n'
     '    }\n'
     '  ],\n'
     '  "rows": []\n'
     '}\n'),
    (('verify', '--max-n', '200', '--classes', 'p:13,kpow:4,3', '--max-rows', '3', '--format', 'csv'), 0,
     'quantity,formula,oracle,delta,n\n'),
]


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(argv))
    except SystemExit as exc:
        code = exc.code
    return code, out.getvalue()


@pytest.mark.parametrize(
    "argv, code, stdout", GOLDEN, ids=[" ".join(g[0]) for g in GOLDEN]
)
def test_cli_output_is_unchanged(argv, code, stdout):
    assert _run(argv) == (code, stdout)


_BENCH_NAMES = ["pi(oracle)", "pi(formula)", "gen(168)", "verify(498)",
                "sieve build", "rank build", "rank query"]


def test_bench_text_shape():
    code, out = _run(["bench", "--x-max", "1000", "--repeats", "1"])
    assert code == 0
    header, *rows = out.splitlines()
    assert header == "name                    x      median_ns"
    assert [re.sub(r" +\d+$", "", r) for r in rows] == [
        f"{name:14s} {1000:>10d}" for name in _BENCH_NAMES
    ]
    assert all(len(r) == len(header) for r in rows)


def test_bench_json_shape():
    code, out = _run(
        ["bench", "--x-max", "1000", "--repeats", "1", "--format", "json"]
    )
    assert code == 0
    data = json.loads(out)
    assert list(data) == ["repeats", "python", "numpy", "machine", "rows"]
    assert data["repeats"] == 1
    assert [list(r) for r in data["rows"]] == [["name", "x", "median_ns"]] * 7
    assert [(r["name"], r["x"]) for r in data["rows"]] == [
        (name, 1000) for name in _BENCH_NAMES
    ]
    assert out.startswith('{\n  "repeats": 1,\n  "python": ')


def test_bench_csv_shape():
    code, out = _run(
        ["bench", "--x-max", "1000", "--repeats", "1", "--format", "csv"]
    )
    assert code == 0
    header, *rows = out.splitlines()
    assert header == "name,x,median_ns"
    assert [re.sub(r"\d+$", "<ns>", r) for r in rows] == [
        f"{name},1000,<ns>" for name in _BENCH_NAMES
    ]
