//! The perf history: `BENCH_simbench.json` at the repository root holds one
//! entry per benchmarked change, newest last. Each entry records the
//! parent and change commits, the host, the run length, seed and pair
//! count, and per workload the change's median and the parent's
//! interquartile range of every end-to-end metric `BENCHMARK.json` names.
//! The workspace has no JSON library, so a small reader lives here.

use std::collections::BTreeMap;
use std::path::Path;

/// A parsed JSON value.
#[derive(Debug)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(BTreeMap<String, Json>),
}

impl Json {
    fn get(&self, key: &str) -> &Json {
        match self {
            Json::Obj(m) => m.get(key).unwrap_or_else(|| panic!("missing key {key:?}")),
            other => panic!("{other:?} is not an object (looking up {key:?})"),
        }
    }

    fn arr(&self) -> &[Json] {
        match self {
            Json::Arr(v) => v,
            other => panic!("{other:?} is not an array"),
        }
    }

    fn str(&self) -> &str {
        match self {
            Json::Str(s) => s,
            other => panic!("{other:?} is not a string"),
        }
    }

    fn num(&self) -> f64 {
        match self {
            Json::Num(n) => *n,
            other => panic!("{other:?} is not a number"),
        }
    }
}

/// A recursive-descent reader for the JSON these files use: no escapes
/// beyond `\"` and `\\`.
struct Reader<'a> {
    s: &'a [u8],
    i: usize,
}

impl Reader<'_> {
    fn parse(text: &str) -> Json {
        let mut r = Reader { s: text.as_bytes(), i: 0 };
        let v = r.value();
        r.ws();
        assert_eq!(r.i, r.s.len(), "trailing input at byte {}", r.i);
        v
    }

    fn ws(&mut self) {
        while self.i < self.s.len() && self.s[self.i].is_ascii_whitespace() {
            self.i += 1;
        }
    }

    fn eat(&mut self, c: u8) {
        self.ws();
        assert_eq!(self.s.get(self.i), Some(&c), "expected {:?} at byte {}", c as char, self.i);
        self.i += 1;
    }

    fn peek(&mut self) -> u8 {
        self.ws();
        *self.s.get(self.i).expect("unexpected end of input")
    }

    fn value(&mut self) -> Json {
        match self.peek() {
            b'{' => {
                self.eat(b'{');
                let mut m = BTreeMap::new();
                while self.peek() != b'}' {
                    let k = self.string();
                    self.eat(b':');
                    m.insert(k, self.value());
                    if self.peek() == b',' {
                        self.eat(b',');
                    }
                }
                self.eat(b'}');
                Json::Obj(m)
            }
            b'[' => {
                self.eat(b'[');
                let mut v = Vec::new();
                while self.peek() != b']' {
                    v.push(self.value());
                    if self.peek() == b',' {
                        self.eat(b',');
                    }
                }
                self.eat(b']');
                Json::Arr(v)
            }
            b'"' => Json::Str(self.string()),
            _ => {
                let start = self.i;
                while self.i < self.s.len() && !b",]} \n\r\t".contains(&self.s[self.i]) {
                    self.i += 1;
                }
                match std::str::from_utf8(&self.s[start..self.i]).unwrap() {
                    "null" => Json::Null,
                    "true" => Json::Bool(true),
                    "false" => Json::Bool(false),
                    n => Json::Num(n.parse().unwrap_or_else(|_| panic!("bad literal {n:?}"))),
                }
            }
        }
    }

    fn string(&mut self) -> String {
        self.eat(b'"');
        let mut out = String::new();
        loop {
            match self.s[self.i] {
                b'"' => break,
                b'\\' => {
                    self.i += 1;
                    out.push(self.s[self.i] as char);
                }
                _ => {
                    let rest = std::str::from_utf8(&self.s[self.i..]).unwrap();
                    let c = rest.chars().next().unwrap();
                    out.push(c);
                    self.i += c.len_utf8() - 1;
                }
            }
            self.i += 1;
        }
        self.i += 1;
        out
    }
}

fn read(name: &str) -> Json {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    Reader::parse(&std::fs::read_to_string(root.join(name)).unwrap())
}

#[test]
fn newest_perf_entry_names_every_end_to_end_metric() {
    let bench = read("BENCHMARK.json");
    let workloads: Vec<&str> =
        bench.get("workloads").arr().iter().map(|w| w.get("name").str()).collect();
    let metrics: Vec<&str> =
        bench.get("end_to_end").arr().iter().map(|m| m.get("name").str()).collect();
    assert_eq!(workloads.len(), 4);
    assert!(!metrics.is_empty());

    let history = read("BENCH_simbench.json");
    let newest = history.arr().last().expect("BENCH_simbench.json has no entry");
    for key in ["pr", "parent", "change"] {
        assert!(!newest.get(key).str().is_empty(), "{key} is empty");
    }
    for key in ["host_cores", "seconds", "seed", "pairs"] {
        assert!(newest.get(key).num() > 0.0, "{key} must be positive");
    }
    for w in &workloads {
        let row = newest.get("workloads").get(w);
        for m in &metrics {
            let cell = row.get(m);
            let (median, iqr) = (cell.get("median").num(), cell.get("parent_iqr").num());
            assert!(median.is_finite() && iqr >= 0.0, "{w} {m}: median {median}, IQR {iqr}");
        }
    }
}

#[test]
fn reader_handles_the_json_it_meets() {
    let v = Reader::parse(r#"{"a": [1, -2.5e3, null, true], "b\"c": {"d": "µs"}}"#);
    assert_eq!(v.get("a").arr()[1].num(), -2500.0);
    assert!(matches!(v.get("a").arr()[2], Json::Null));
    assert!(matches!(v.get("a").arr()[3], Json::Bool(true)));
    assert_eq!(v.get("b\"c").get("d").str(), "µs");
}
