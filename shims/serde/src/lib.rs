//! Offline stand-in for `serde`.
//!
//! The real crates.io `serde` is unavailable in this build environment, so
//! this shim provides the same *spelling* at call sites —
//! `use serde::{Serialize, Deserialize};` plus `#[derive(...)]` — backed by
//! a much simpler model: types convert to and from a JSON-like [`Value`]
//! tree. `serde_json` (also vendored) renders that tree to JSON text and
//! parses it back.
//!
//! The encoding mirrors `serde_json`'s defaults: structs become maps, unit
//! enum variants become strings, data-carrying variants become
//! single-entry maps, `Option::None` becomes null, and non-finite floats
//! serialize as null.

#![deny(unsafe_code)]

pub use serde_derive::{Deserialize, Serialize};

use std::collections::BTreeMap;

/// A JSON-like value tree: the intermediate representation every
/// serializable type converts through.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// Null (also the encoding of `None` and non-finite floats).
    Null,
    /// Boolean.
    Bool(bool),
    /// Signed integer.
    Int(i64),
    /// Unsigned integer too large for `Int`.
    UInt(u64),
    /// Floating point.
    Float(f64),
    /// String.
    Str(String),
    /// Sequence.
    Seq(Vec<Value>),
    /// Ordered key-value map (struct fields, enum payloads).
    Map(Vec<(String, Value)>),
}

/// Shared null used when a struct field is absent.
pub const NULL: Value = Value::Null;

impl Value {
    /// Map lookup by key; absent fields read as [`Value::Null`] so that
    /// `Option` fields deserialize to `None` and everything else reports a
    /// useful error.
    pub fn field(&self, name: &str) -> &Value {
        match self {
            Value::Map(entries) => {
                entries.iter().find(|(k, _)| k == name).map_or(&NULL, |(_, v)| v)
            }
            _ => &NULL,
        }
    }

    /// The sequence items, if this is a [`Value::Seq`].
    pub fn as_seq(&self) -> Option<&[Value]> {
        match self {
            Value::Seq(items) => Some(items),
            _ => None,
        }
    }

    /// The map entries, if this is a [`Value::Map`].
    pub fn as_map(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Map(entries) => Some(entries),
            _ => None,
        }
    }
}

/// Serialization/deserialization error.
#[derive(Debug, Clone)]
pub struct Error {
    msg: String,
}

impl Error {
    /// Creates an error with a custom message.
    pub fn custom(msg: impl std::fmt::Display) -> Self {
        Self { msg: msg.to_string() }
    }

    /// Adds field context while unwinding out of a nested deserialize.
    pub fn in_field(self, field: &str) -> Self {
        Self { msg: format!("{field}: {}", self.msg) }
    }
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.msg)
    }
}

impl std::error::Error for Error {}

/// Conversion into the [`Value`] tree.
pub trait Serialize {
    /// Serializes `self` into a [`Value`].
    fn to_value(&self) -> Value;
}

/// Conversion out of the [`Value`] tree.
pub trait Deserialize: Sized {
    /// Deserializes `Self` from a [`Value`].
    ///
    /// # Errors
    ///
    /// Returns an [`Error`] when the value's shape doesn't match `Self`.
    fn from_value(value: &Value) -> Result<Self, Error>;
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
}

impl Serialize for bool {
    fn to_value(&self) -> Value {
        Value::Bool(*self)
    }
}

impl Deserialize for bool {
    fn from_value(value: &Value) -> Result<Self, Error> {
        match value {
            Value::Bool(b) => Ok(*b),
            other => Err(Error::custom(format!("expected bool, got {other:?}"))),
        }
    }
}

macro_rules! impl_signed {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                Value::Int(*self as i64)
            }
        }
        impl Deserialize for $t {
            fn from_value(value: &Value) -> Result<Self, Error> {
                let wide: i64 = match value {
                    Value::Int(v) => *v,
                    Value::UInt(v) => i64::try_from(*v)
                        .map_err(|_| Error::custom("unsigned value out of range"))?,
                    other => return Err(Error::custom(format!(
                        concat!("expected ", stringify!($t), ", got {:?}"), other))),
                };
                <$t>::try_from(wide).map_err(|_| Error::custom("integer out of range"))
            }
        }
    )*};
}

impl_signed!(i8, i16, i32, i64, isize);

macro_rules! impl_unsigned {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                Value::UInt(*self as u64)
            }
        }
        impl Deserialize for $t {
            fn from_value(value: &Value) -> Result<Self, Error> {
                let wide: u64 = match value {
                    Value::UInt(v) => *v,
                    Value::Int(v) => u64::try_from(*v)
                        .map_err(|_| Error::custom("negative value for unsigned type"))?,
                    other => return Err(Error::custom(format!(
                        concat!("expected ", stringify!($t), ", got {:?}"), other))),
                };
                <$t>::try_from(wide).map_err(|_| Error::custom("integer out of range"))
            }
        }
    )*};
}

impl_unsigned!(u8, u16, u32, u64, usize);

macro_rules! impl_float {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                let v = *self as f64;
                if v.is_finite() { Value::Float(v) } else { Value::Null }
            }
        }
        impl Deserialize for $t {
            fn from_value(value: &Value) -> Result<Self, Error> {
                match value {
                    Value::Float(v) => Ok(*v as $t),
                    Value::Int(v) => Ok(*v as $t),
                    Value::UInt(v) => Ok(*v as $t),
                    Value::Null => Ok(<$t>::NAN),
                    other => Err(Error::custom(format!(
                        concat!("expected ", stringify!($t), ", got {:?}"), other))),
                }
            }
        }
    )*};
}

impl_float!(f32, f64);

impl Serialize for String {
    fn to_value(&self) -> Value {
        Value::Str(self.clone())
    }
}

impl Deserialize for String {
    fn from_value(value: &Value) -> Result<Self, Error> {
        match value {
            Value::Str(s) => Ok(s.clone()),
            other => Err(Error::custom(format!("expected string, got {other:?}"))),
        }
    }
}

impl Serialize for str {
    fn to_value(&self) -> Value {
        Value::Str(self.to_string())
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn to_value(&self) -> Value {
        match self {
            None => Value::Null,
            Some(v) => v.to_value(),
        }
    }
}

impl<T: Deserialize> Deserialize for Option<T> {
    fn from_value(value: &Value) -> Result<Self, Error> {
        match value {
            Value::Null => Ok(None),
            other => Ok(Some(T::from_value(other)?)),
        }
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn to_value(&self) -> Value {
        Value::Seq(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn from_value(value: &Value) -> Result<Self, Error> {
        let items = value
            .as_seq()
            .ok_or_else(|| Error::custom(format!("expected sequence, got {value:?}")))?;
        items.iter().map(T::from_value).collect()
    }
}

impl<T: Serialize> Serialize for [T] {
    fn to_value(&self) -> Value {
        Value::Seq(self.iter().map(Serialize::to_value).collect())
    }
}

impl<K: Serialize, V: Serialize> Serialize for BTreeMap<K, V> {
    fn to_value(&self) -> Value {
        Value::Seq(self.iter().map(|(k, v)| Value::Seq(vec![k.to_value(), v.to_value()])).collect())
    }
}

impl<K: Deserialize + Ord, V: Deserialize> Deserialize for BTreeMap<K, V> {
    fn from_value(value: &Value) -> Result<Self, Error> {
        let items =
            value.as_seq().ok_or_else(|| Error::custom("expected sequence of map entries"))?;
        items
            .iter()
            .map(|entry| {
                let pair = entry
                    .as_seq()
                    .filter(|s| s.len() == 2)
                    .ok_or_else(|| Error::custom("expected [key, value] entry"))?;
                Ok((K::from_value(&pair[0])?, V::from_value(&pair[1])?))
            })
            .collect()
    }
}

macro_rules! impl_tuple {
    ($(($($name:ident : $idx:tt),+)),*) => {$(
        impl<$($name: Serialize),+> Serialize for ($($name,)+) {
            fn to_value(&self) -> Value {
                Value::Seq(vec![$(self.$idx.to_value()),+])
            }
        }
        impl<$($name: Deserialize),+> Deserialize for ($($name,)+) {
            fn from_value(value: &Value) -> Result<Self, Error> {
                let items = value
                    .as_seq()
                    .ok_or_else(|| Error::custom("expected tuple sequence"))?;
                Ok(($($name::from_value(
                    items.get($idx).unwrap_or(&Value::Null))?,)+))
            }
        }
    )*};
}

impl_tuple!(
    (A: 0),
    (A: 0, B: 1),
    (A: 0, B: 1, C: 2),
    (A: 0, B: 1, C: 2, D: 3)
);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn option_round_trip() {
        assert_eq!(Option::<u32>::from_value(&Value::Null).unwrap(), None);
        assert_eq!(Some(3u32).to_value(), Value::UInt(3));
    }

    #[test]
    fn missing_field_reads_as_null() {
        let map = Value::Map(vec![("a".to_string(), Value::Int(1))]);
        assert_eq!(map.field("b"), &Value::Null);
        assert_eq!(map.field("a"), &Value::Int(1));
    }

    #[test]
    fn tuple3_round_trip() {
        let v = ("x".to_string(), 2usize, 0.5f64).to_value();
        let back: (String, usize, f64) = Deserialize::from_value(&v).unwrap();
        assert_eq!(back, ("x".to_string(), 2, 0.5));
    }
}
