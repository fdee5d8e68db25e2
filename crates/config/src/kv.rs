//! Line-based `key = value` scanning shared by all parsers.

use crate::error::ConfigError;
use std::collections::HashMap;

/// A parsed `key = value` file: keys are lower-cased; `#` starts a comment.
/// Each key appears at most once, except the one repeatable key a parser
/// may name, whose lines are kept in file order.
#[derive(Debug)]
pub(crate) struct KvFile {
    file: String,
    entries: HashMap<String, (usize, String)>,
    repeated: Vec<(usize, String)>,
}

impl KvFile {
    pub(crate) fn parse(file: &str, text: &str) -> Result<Self, ConfigError> {
        KvFile::parse_repeating(file, text, None)
    }

    /// [`KvFile::parse`], except that the key `repeatable` may appear on
    /// any number of lines; [`KvFile::repeated`] lists them.
    pub(crate) fn parse_repeating(
        file: &str,
        text: &str,
        repeatable: Option<&str>,
    ) -> Result<Self, ConfigError> {
        let mut entries = HashMap::new();
        let mut repeated = Vec::new();
        for (i, raw) in text.lines().enumerate() {
            let line = raw.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            let Some((k, v)) = line.split_once('=') else {
                return Err(ConfigError::parse(
                    file,
                    i + 1,
                    format!("expected `key = value`, got `{line}`"),
                ));
            };
            let key = k.trim().to_ascii_lowercase();
            let value = v.trim().to_string();
            if repeatable == Some(key.as_str()) {
                repeated.push((i + 1, value));
                continue;
            }
            if let Some((first, _)) = entries.get(&key) {
                return Err(ConfigError::parse(
                    file,
                    i + 1,
                    format!("duplicate key `{key}` (first at line {first})"),
                ));
            }
            entries.insert(key, (i + 1, value));
        }
        Ok(KvFile { file: file.to_string(), entries, repeated })
    }

    /// `(line, value)` of every line with the repeatable key, in file order.
    pub(crate) fn repeated(&self) -> &[(usize, String)] {
        &self.repeated
    }

    pub(crate) fn get(&self, key: &str) -> Option<&str> {
        self.entries.get(key).map(|(_, v)| v.as_str())
    }

    pub(crate) fn require(&self, key: &str) -> Result<&str, ConfigError> {
        self.get(key).ok_or_else(|| {
            ConfigError::parse(&self.file, 0, format!("missing required key `{key}`"))
        })
    }

    pub(crate) fn u64_or(&self, key: &str, default: u64) -> Result<u64, ConfigError> {
        match self.entries.get(key) {
            None => Ok(default),
            Some((line, v)) => v.parse().map_err(|_| {
                ConfigError::parse(
                    &self.file,
                    *line,
                    format!("`{key}` must be an integer, got `{v}`"),
                )
            }),
        }
    }

    pub(crate) fn u64_req(&self, key: &str) -> Result<u64, ConfigError> {
        let v = self.require(key)?;
        let (line, _) = self.entries[key];
        v.parse().map_err(|_| {
            ConfigError::parse(&self.file, line, format!("`{key}` must be an integer, got `{v}`"))
        })
    }

    pub(crate) fn bool_or(&self, key: &str, default: bool) -> Result<bool, ConfigError> {
        match self.entries.get(key) {
            None => Ok(default),
            Some((line, v)) => match v.to_ascii_lowercase().as_str() {
                "true" | "1" | "yes" | "on" => Ok(true),
                "false" | "0" | "no" | "off" => Ok(false),
                _ => Err(ConfigError::parse(
                    &self.file,
                    *line,
                    format!("`{key}` must be a boolean, got `{v}`"),
                )),
            },
        }
    }

    /// Comma-separated integer list, e.g. `ptw_partition = 2,14`.
    pub(crate) fn u64_list(&self, key: &str) -> Result<Option<Vec<u64>>, ConfigError> {
        match self.entries.get(key) {
            None => Ok(None),
            Some((line, v)) => v
                .split(',')
                .map(|s| {
                    s.trim().parse().map_err(|_| {
                        ConfigError::parse(
                            &self.file,
                            *line,
                            format!("`{key}` must be a list of integers, got `{v}`"),
                        )
                    })
                })
                .collect::<Result<Vec<u64>, _>>()
                .map(Some),
        }
    }

    pub(crate) fn file(&self) -> &str {
        &self.file
    }

    pub(crate) fn line_of(&self, key: &str) -> usize {
        self.entries.get(key).map(|(l, _)| *l).unwrap_or(0)
    }
}

/// Split an attribute list like `in_hw=224, out_c=96` into pairs.
pub(crate) fn attr_pairs<'a>(
    file: &str,
    line: usize,
    fields: impl Iterator<Item = &'a str>,
) -> Result<HashMap<String, u64>, ConfigError> {
    let mut out = HashMap::new();
    for f in fields {
        let f = f.trim();
        if f.is_empty() {
            continue;
        }
        let Some((k, v)) = f.split_once('=') else {
            return Err(ConfigError::parse(
                file,
                line,
                format!("expected `attr=value`, got `{f}`"),
            ));
        };
        let value: u64 = v.trim().parse().map_err(|_| {
            ConfigError::parse(
                file,
                line,
                format!("attribute `{}` must be an integer, got `{}`", k.trim(), v.trim()),
            )
        })?;
        out.insert(k.trim().to_ascii_lowercase(), value);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_keys_comments_and_blank_lines() {
        let kv = KvFile::parse("t", "# header\n\nrows = 16 # inline\ncols=32\n").unwrap();
        assert_eq!(kv.get("rows"), Some("16"));
        assert_eq!(kv.u64_req("cols").unwrap(), 32);
        assert_eq!(kv.get("missing"), None);
    }

    #[test]
    fn duplicate_key_rejected() {
        let e = KvFile::parse("t", "a = 1\na = 2").unwrap_err();
        assert!(e.to_string().contains("duplicate"));
    }

    #[test]
    fn repeatable_key_keeps_every_line_in_order() {
        let kv = KvFile::parse_repeating("t", "job = a\nn = 1\njob = b", Some("job")).unwrap();
        assert_eq!(kv.repeated(), [(1, "a".to_string()), (3, "b".to_string())]);
        assert_eq!(kv.get("job"), None);
        let e = KvFile::parse_repeating("t", "n = 1\njob = a\nn = 2", Some("job")).unwrap_err();
        assert!(e.to_string().contains("duplicate key `n` (first at line 1)"), "{e}");
    }

    #[test]
    fn bad_integer_reports_line() {
        let kv = KvFile::parse("t", "rows = abc").unwrap();
        let e = kv.u64_req("rows").unwrap_err();
        assert!(e.to_string().contains("t:1"));
    }

    #[test]
    fn bool_and_list_parsing() {
        let kv = KvFile::parse("t", "flag = yes\nsplit = 2, 14").unwrap();
        assert!(kv.bool_or("flag", false).unwrap());
        assert!(!kv.bool_or("other", false).unwrap());
        assert_eq!(kv.u64_list("split").unwrap(), Some(vec![2, 14]));
        assert_eq!(kv.u64_list("nope").unwrap(), None);
    }

    #[test]
    fn attr_pairs_parse() {
        let m = attr_pairs("t", 1, "in_hw=224, out_c = 96".split(',')).unwrap();
        assert_eq!(m["in_hw"], 224);
        assert_eq!(m["out_c"], 96);
        assert!(attr_pairs("t", 1, "oops".split(',')).is_err());
    }
}
