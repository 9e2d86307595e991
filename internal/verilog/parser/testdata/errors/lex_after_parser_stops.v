garbage before module;
module top_module (input a, output y);
    assign y = a # 1 \ 2;
endmodule
// trailing stray: ` and 3'b
