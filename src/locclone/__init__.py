"""Local-cloning verification toolkit for three-qubit GHZ and W states.

Importing the package loads none of its modules; import the one you need:

* registers: state vectors, density matrices, gates, partial trace and transpose;
* states: the GHZ and W bases, W-class parameters and label parsing;
* measures: cut entropy, negativity and the W-class closed-form spectra;
* ghz_cloning: GHZ cloning circuits and the Bell-triple witness;
* w_audit: the W pair taxonomy, negativity audits and the simplex scan;
* report: the report document and its table, json and csv forms;
* cli: the command line, which imports each analysis only for the commands that run it.
"""

__version__ = "0.1.0"
