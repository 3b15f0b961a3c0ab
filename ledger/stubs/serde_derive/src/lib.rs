//! Stand-in for `serde_derive`: the derives expand to nothing, because the
//! stand-in `serde` traits are blanket-implemented markers. The `serde`
//! helper attribute is declared so `#[serde(default)]` and friends parse.

use proc_macro::TokenStream;

/// No-op `#[derive(Serialize)]`.
#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(_input: TokenStream) -> TokenStream {
    TokenStream::new()
}

/// No-op `#[derive(Deserialize)]`.
#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(_input: TokenStream) -> TokenStream {
    TokenStream::new()
}
