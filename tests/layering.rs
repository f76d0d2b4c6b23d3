//! The workspace's crate graph stays inside an allow-list.
//!
//! An internal edge is a normal (not dev, not build) dependency of a
//! workspace package on another workspace package, as
//! `cargo metadata --offline` reports it (the rule `scripts/shape.sh`
//! counts by). Any edge outside [`ALLOWED`] fails the test, and so does
//! an allowed edge that no longer exists: delete it from the list, so it
//! cannot come back. A change may shrink the list; growing it is a
//! design decision to argue for in review. In particular
//! `bullfrog-storage` must never depend on `bullfrog-txn`: the heap and
//! the log share their row encoding through `bullfrog-common`.

use std::collections::BTreeSet;
use std::process::Command;

const ALLOWED: &[&str] = &[
    "bullfrog -> bullfrog-common",
    "bullfrog -> bullfrog-core",
    "bullfrog -> bullfrog-engine",
    "bullfrog -> bullfrog-ha",
    "bullfrog -> bullfrog-net",
    "bullfrog -> bullfrog-obs",
    "bullfrog -> bullfrog-query",
    "bullfrog -> bullfrog-repl",
    "bullfrog -> bullfrog-sql",
    "bullfrog -> bullfrog-storage",
    "bullfrog -> bullfrog-tpcc",
    "bullfrog -> bullfrog-txn",
    "bullfrog-bench -> bullfrog-common",
    "bullfrog-bench -> bullfrog-core",
    "bullfrog-bench -> bullfrog-engine",
    "bullfrog-bench -> bullfrog-query",
    "bullfrog-bench -> bullfrog-tpcc",
    "bullfrog-bench -> bullfrog-txn",
    "bullfrog-bench -> parking_lot",
    "bullfrog-core -> bullfrog-common",
    "bullfrog-core -> bullfrog-engine",
    "bullfrog-core -> bullfrog-query",
    "bullfrog-core -> bullfrog-storage",
    "bullfrog-core -> bullfrog-txn",
    "bullfrog-core -> parking_lot",
    "bullfrog-engine -> bullfrog-common",
    "bullfrog-engine -> bullfrog-obs",
    "bullfrog-engine -> bullfrog-query",
    "bullfrog-engine -> bullfrog-storage",
    "bullfrog-engine -> bullfrog-txn",
    "bullfrog-engine -> bytes",
    "bullfrog-engine -> parking_lot",
    "bullfrog-ha -> bullfrog-common",
    "bullfrog-ha -> bullfrog-core",
    "bullfrog-ha -> bullfrog-engine",
    "bullfrog-ha -> bullfrog-net",
    "bullfrog-ha -> bullfrog-repl",
    "bullfrog-ha -> bullfrog-txn",
    "bullfrog-ha -> parking_lot",
    "bullfrog-net -> bullfrog-common",
    "bullfrog-net -> bullfrog-core",
    "bullfrog-net -> bullfrog-engine",
    "bullfrog-net -> bullfrog-obs",
    "bullfrog-net -> bullfrog-query",
    "bullfrog-net -> bullfrog-sql",
    "bullfrog-net -> bullfrog-txn",
    "bullfrog-net -> bytes",
    "bullfrog-net -> parking_lot",
    "bullfrog-net -> polling",
    "bullfrog-query -> bullfrog-common",
    "bullfrog-repl -> bullfrog-common",
    "bullfrog-repl -> bullfrog-core",
    "bullfrog-repl -> bullfrog-engine",
    "bullfrog-repl -> bullfrog-net",
    "bullfrog-repl -> bullfrog-sql",
    "bullfrog-repl -> bullfrog-txn",
    "bullfrog-repl -> bytes",
    "bullfrog-repl -> parking_lot",
    "bullfrog-repl -> rand",
    "bullfrog-sql -> bullfrog-common",
    "bullfrog-sql -> bullfrog-core",
    "bullfrog-sql -> bullfrog-engine",
    "bullfrog-sql -> bullfrog-query",
    "bullfrog-storage -> bullfrog-common",
    "bullfrog-storage -> parking_lot",
    "bullfrog-tpcc -> bullfrog-common",
    "bullfrog-tpcc -> bullfrog-core",
    "bullfrog-tpcc -> bullfrog-engine",
    "bullfrog-tpcc -> bullfrog-query",
    "bullfrog-tpcc -> bullfrog-txn",
    "bullfrog-tpcc -> rand",
    "bullfrog-txn -> bullfrog-common",
    "bullfrog-txn -> bullfrog-obs",
    "bullfrog-txn -> bytes",
    "bullfrog-txn -> parking_lot",
];

#[test]
fn internal_crate_edges_stay_inside_the_allow_list() {
    let out = Command::new(env!("CARGO"))
        .args([
            "metadata",
            "--offline",
            "--format-version",
            "1",
            "--no-deps",
        ])
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .expect("run cargo metadata");
    assert!(
        out.status.success(),
        "cargo metadata failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let meta = json::parse(&String::from_utf8(out.stdout).expect("utf-8 metadata"));
    let packages = meta.get("packages").as_array();
    let names: BTreeSet<&str> = packages.iter().map(|p| p.get("name").as_str()).collect();
    let mut edges = BTreeSet::new();
    for p in packages {
        for d in p.get("dependencies").as_array() {
            let dep = d.get("name").as_str();
            if names.contains(dep) && d.get("kind").is_null() {
                edges.insert(format!("{} -> {dep}", p.get("name").as_str()));
            }
        }
    }
    let allowed: BTreeSet<String> = ALLOWED.iter().map(|e| e.to_string()).collect();
    assert_eq!(
        allowed.len(),
        ALLOWED.len(),
        "the allow-list repeats an edge"
    );
    let added: Vec<_> = edges.difference(&allowed).collect();
    let gone: Vec<_> = allowed.difference(&edges).collect();
    assert!(
        added.is_empty(),
        "crate edges outside the allow-list: {added:?}"
    );
    assert!(
        gone.is_empty(),
        "allowed edges that no longer exist; delete them from ALLOWED: {gone:?}"
    );
}

/// Just enough JSON to read `cargo metadata`: objects, arrays, strings
/// (with escapes), numbers, booleans and null.
mod json {
    use std::collections::BTreeMap;

    #[derive(Debug)]
    pub enum Json {
        Null,
        Bool,
        Num,
        Str(String),
        Arr(Vec<Json>),
        Obj(BTreeMap<String, Json>),
    }

    static NULL: Json = Json::Null;

    impl Json {
        /// The member `key` of an object (`null` when absent).
        pub fn get(&self, key: &str) -> &Json {
            match self {
                Json::Obj(m) => m.get(key).unwrap_or(&NULL),
                other => panic!("not an object: {other:?}"),
            }
        }

        pub fn as_array(&self) -> &[Json] {
            match self {
                Json::Arr(a) => a,
                other => panic!("not an array: {other:?}"),
            }
        }

        pub fn as_str(&self) -> &str {
            match self {
                Json::Str(s) => s,
                other => panic!("not a string: {other:?}"),
            }
        }

        pub fn is_null(&self) -> bool {
            matches!(self, Json::Null)
        }
    }

    pub fn parse(text: &str) -> Json {
        let mut p = Parser {
            s: text.as_bytes(),
            i: 0,
        };
        let v = p.value();
        p.ws();
        assert_eq!(p.i, p.s.len(), "trailing bytes after the JSON value");
        v
    }

    struct Parser<'a> {
        s: &'a [u8],
        i: usize,
    }

    impl Parser<'_> {
        fn ws(&mut self) {
            while self.s.get(self.i).is_some_and(u8::is_ascii_whitespace) {
                self.i += 1;
            }
        }

        fn eat(&mut self, b: u8) -> bool {
            self.ws();
            let hit = self.s.get(self.i) == Some(&b);
            self.i += usize::from(hit);
            hit
        }

        fn literal(&mut self, word: &str, v: Json) -> Json {
            assert!(
                self.s[self.i..].starts_with(word.as_bytes()),
                "bad literal at {}",
                self.i
            );
            self.i += word.len();
            v
        }

        fn value(&mut self) -> Json {
            self.ws();
            match self.s[self.i] {
                b'{' => {
                    self.i += 1;
                    let mut m = BTreeMap::new();
                    if !self.eat(b'}') {
                        loop {
                            self.ws();
                            let k = self.string();
                            assert!(self.eat(b':'), "expected ':' at {}", self.i);
                            m.insert(k, self.value());
                            if self.eat(b'}') {
                                break;
                            }
                            assert!(self.eat(b','), "expected ',' at {}", self.i);
                        }
                    }
                    Json::Obj(m)
                }
                b'[' => {
                    self.i += 1;
                    let mut a = Vec::new();
                    if !self.eat(b']') {
                        loop {
                            a.push(self.value());
                            if self.eat(b']') {
                                break;
                            }
                            assert!(self.eat(b','), "expected ',' at {}", self.i);
                        }
                    }
                    Json::Arr(a)
                }
                b'"' => Json::Str(self.string()),
                b't' => self.literal("true", Json::Bool),
                b'f' => self.literal("false", Json::Bool),
                b'n' => self.literal("null", Json::Null),
                _ => {
                    let start = self.i;
                    while self
                        .s
                        .get(self.i)
                        .is_some_and(|b| b"+-.eE".contains(b) || b.is_ascii_digit())
                    {
                        self.i += 1;
                    }
                    assert!(self.i > start, "unexpected byte at {start}");
                    Json::Num
                }
            }
        }

        fn string(&mut self) -> String {
            assert_eq!(self.s[self.i], b'"', "expected a string at {}", self.i);
            self.i += 1;
            let mut out = Vec::new();
            loop {
                let b = self.s[self.i];
                self.i += 1;
                match b {
                    b'"' => break,
                    b'\\' => {
                        let e = self.s[self.i];
                        self.i += 1;
                        let c = match e {
                            b'n' => '\n',
                            b't' => '\t',
                            b'r' => '\r',
                            b'b' => '\u{8}',
                            b'f' => '\u{c}',
                            b'u' => {
                                let hex = std::str::from_utf8(&self.s[self.i..self.i + 4]).unwrap();
                                self.i += 4;
                                // Surrogate pairs never occur in crate names;
                                // any other code unit stands for itself.
                                char::from_u32(u32::from_str_radix(hex, 16).unwrap())
                                    .unwrap_or('\u{fffd}')
                            }
                            other => other as char,
                        };
                        out.extend_from_slice(c.encode_utf8(&mut [0; 4]).as_bytes());
                    }
                    _ => out.push(b),
                }
            }
            String::from_utf8(out).expect("utf-8 string")
        }
    }
}
